"""The "true" R+-tree of Faloutsos, Sellis & Roussopoulos.

Section 3 of the paper distinguishes three disjoint-decomposition
variants by what their non-leaf entries carry:

* the **k-d-B-tree** stores the raw partition rectangles;
* the **true R+-tree** stores, inside each partition, the *minimum
  enclosing rectangle of the contents* -- "this distinction minimizes
  dead space in the R+-tree";
* the paper's **hybrid** (our :class:`RPlusTree`) keeps MBRs only in the
  leaves.

Paper claims for the true variant relative to the k-d-B-tree / hybrid:
point searches can fail earlier on dead space, range and nearest queries
prune more, and building is slower because the MBRs must be maintained
on every insertion. The ablation benchmark measures all three.

Implementation: the partition structure and all insert/split machinery
are inherited from the hybrid (entries keep carrying partition
rectangles, so splits and routing are untouched); the per-child content
MBRs are maintained through the hybrid's mutation hooks in a sidecar map
and used by the search methods for pruning. A disk implementation would
keep the MBR inside the 20-byte tuple in place of the partition
rectangle and recover partitions from the split history, so the byte
accounting is unchanged -- the sidecar is navigation metadata exactly
like the PMR's block directory.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.interface import NNItem, SpatialIndex, query_lower_bound
from repro.core.rplus.rplus import RPlusTree, _clip_rect
from repro.core.rtree.node import RTreeNode
from repro.geometry import Point, Rect


class TrueRPlusTree(RPlusTree):
    name = "R+t"
    stock_search = None  # its searches prune by the sidecar, in loops of its own
    # The sidecar is navigational state no manifest carries: no snapshots.
    params = SpatialIndex.params
    state = SpatialIndex.state

    def __init__(self, ctx, world: Optional[Rect] = None, capacity=None) -> None:
        super().__init__(ctx, world=world, capacity=capacity)
        #: Content MBR per page, always clipped to the page's partition.
        #: Absent key = empty node (nothing can match inside it).
        self.content_mbr: Dict[int, Rect] = {}

    # ------------------------------------------------------------------
    # MBR maintenance through the hybrid's hooks
    # ------------------------------------------------------------------
    def _note_leaf_insert(self, page_id: int, region: Rect, mbr: Rect) -> None:
        clipped = _clip_rect(mbr, region)
        current = self.content_mbr.get(page_id)
        self.content_mbr[page_id] = (
            clipped if current is None else current.merged(clipped)
        )
        # Maintaining the enclosing rectangle is the extra work the paper
        # charges the true R+-tree for at build time.
        self.ctx.counters.bbox_comps += 1

    def _note_internal_insert(self, page_id: int, region: Rect, mbr: Rect) -> None:
        # The subtree below this node now holds (a piece of) the segment:
        # grow its content MBR by the clipped segment MBR. Splits below
        # recompute exact MBRs afterwards, which only tightens this.
        clipped = _clip_rect(mbr, region)
        current = self.content_mbr.get(page_id)
        self.content_mbr[page_id] = (
            clipped if current is None else current.merged(clipped)
        )
        self.ctx.counters.bbox_comps += 1

    def _note_node_rewritten(
        self, page_id: int, region: Rect, node: RTreeNode
    ) -> None:
        mbr: Optional[Rect] = None
        if node.is_leaf:
            for r, _ in node.entries:
                clipped = _clip_rect(r, region)
                mbr = clipped if mbr is None else mbr.merged(clipped)
        else:
            for r, child in node.entries:
                child_mbr = self.content_mbr.get(child)
                if child_mbr is None:
                    continue
                mbr = child_mbr if mbr is None else mbr.merged(child_mbr)
        self.ctx.counters.bbox_comps += len(node.entries)
        if mbr is None:
            self.content_mbr.pop(page_id, None)
        else:
            self.content_mbr[page_id] = _clip_rect(mbr, region)

    def _prune_rect(self, child: int, partition: Rect) -> Optional[Rect]:
        """The rectangle a search must test: the content MBR (or nothing
        at all for an empty subtree)."""
        return self.content_mbr.get(child)

    # ------------------------------------------------------------------
    # Searches (pruned by content MBRs)
    # ------------------------------------------------------------------
    def candidate_ids_at_point(self, p: Point) -> List[int]:
        out: List[int] = []
        pool = self.ctx.pool
        counters = self.ctx.counters
        stack = [self.root_id]
        while stack:
            page_id = stack.pop()
            node: RTreeNode = pool.get(page_id)
            counters.bbox_comps += len(node.entries)
            if node.is_leaf:
                out.extend(ref for r, ref in node.entries if r.contains_point(p))
            else:
                for r, child in node.entries:
                    prune = self._prune_rect(child, r)
                    if prune is not None and prune.contains_point(p):
                        stack.append(child)
        return out

    def candidate_ids_in_rect(self, rect: Rect) -> List[int]:
        out: List[int] = []
        pool = self.ctx.pool
        counters = self.ctx.counters
        stack = [self.root_id]
        while stack:
            page_id = stack.pop()
            node: RTreeNode = pool.get(page_id)
            counters.bbox_comps += len(node.entries)
            if node.is_leaf:
                out.extend(ref for r, ref in node.entries if r.intersects(rect))
            else:
                for r, child in node.entries:
                    prune = self._prune_rect(child, r)
                    if prune is not None and prune.intersects(rect):
                        stack.append(child)
        return out

    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        node: RTreeNode = self.ctx.pool.get(ref)
        self.ctx.counters.bbox_comps += len(node.entries)
        if node.is_leaf:
            if not node.entries:
                return []
            d = query_lower_bound(p, Rect.union_of(r for r, _ in node.entries))
            return [NNItem(d, True, child) for _, child in node.entries]
        out: List[NNItem] = []
        for r, child in node.entries:
            prune = self._prune_rect(child, r)
            if prune is None:
                continue  # empty subtree: nothing to visit
            out.append(NNItem(query_lower_bound(p, prune), False, child))
        return out
