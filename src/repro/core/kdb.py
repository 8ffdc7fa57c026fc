"""The pure k-d-B-tree variant (Robinson), for the Section 3 contrast.

The paper's hybrid (:class:`~repro.core.rplus.RPlusTree`) is "somewhere
between the k-d-B-tree and the R+-tree": partition rectangles above the
leaves, minimum bounding rectangles for the segments inside them. The
pure k-d-B-tree "leaves the rectangles S alone" -- it stores no MBRs at
all, so a search that reaches a leaf must consider *every* segment in it.

Per the paper: building is at least as fast and storage is the same
(entries are the same 20-byte 2-tuples), but point searches are slightly
slower because a search cannot fail early on dead space, and range /
nearest queries prune less. The ablation benchmark
(``benchmarks/test_ablations.py``) measures exactly that trade-off.

Implementation: a subclass of the hybrid that ignores the stored leaf
MBRs at query time (partition maintenance is shared -- the hybrid's build
path is already the k-d-B one).
"""

from __future__ import annotations

from typing import Any, List

from repro.core.interface import NNItem, SpatialIndex, query_lower_bound
from repro.core.rplus import RPlusTree
from repro.core.rtree.node import RTreeNode
from repro.geometry import Point, Rect


class KDBTree(RPlusTree):
    name = "kdB"
    stock_search = None  # ignores the leaf MBRs, in loops of its own
    # An ablation variant, built and measured in process: no snapshots.
    params = SpatialIndex.params
    state = SpatialIndex.state

    def candidate_ids_at_point(self, p: Point) -> List[int]:
        out: List[int] = []
        pool = self.ctx.pool
        counters = self.ctx.counters
        stack: List[Any] = [(self.root_id, self.world)]
        while stack:
            page_id, region = stack.pop()
            node: RTreeNode = pool.get(page_id)
            if node.is_leaf:
                # No leaf MBRs: every resident segment is a candidate.
                counters.bbox_comps += 1
                out.extend(ref for _, ref in node.entries)
            else:
                counters.bbox_comps += len(node.entries)
                stack.extend(
                    (child, r) for r, child in node.entries if r.contains_point(p)
                )
        return out

    def candidate_ids_in_rect(self, rect: Rect) -> List[int]:
        out: List[int] = []
        pool = self.ctx.pool
        counters = self.ctx.counters
        stack: List[Any] = [(self.root_id, self.world)]
        while stack:
            page_id, region = stack.pop()
            node: RTreeNode = pool.get(page_id)
            if node.is_leaf:
                counters.bbox_comps += 1
                out.extend(ref for _, ref in node.entries)
            else:
                counters.bbox_comps += len(node.entries)
                stack.extend(
                    (child, r) for r, child in node.entries if r.intersects(rect)
                )
        return out

    def nn_start(self, p: Point) -> List[NNItem]:
        return [NNItem(0.0, False, (self.root_id, self.world))]

    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        page_id, region = ref
        node: RTreeNode = self.ctx.pool.get(page_id)
        if node.is_leaf:
            # The only available lower bound is the leaf region itself.
            self.ctx.counters.bbox_comps += 1
            d = query_lower_bound(p, region)
            return [NNItem(d, True, seg_id) for _, seg_id in node.entries]
        self.ctx.counters.bbox_comps += len(node.entries)
        return [
            NNItem(query_lower_bound(p, r), False, (child, r))
            for r, child in node.entries
        ]
