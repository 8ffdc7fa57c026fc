"""The R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990).

Three departures from Guttman's R-tree, all exercised by the paper:

* **Choose subtree** at the level above the leaves picks the entry whose
  enlargement *increases overlap with its brothers* the least (Section 3
  of Hoel & Samet); higher levels use least area enlargement.
* **Split** picks the axis by least total perimeter over all candidate
  distributions, then the distribution with least overlap
  (:func:`~repro.core.rtree.splits.split_rstar`).
* **Forced reinsertion**: the first time a node overflows at each level
  during one insertion, the 30 % of its entries farthest from the node
  centre are removed and reinserted instead of splitting. This is the
  "computationally expensive node overflow technique" the paper blames
  for the R*-tree's 7.8-9.1x higher build times.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.rtree.node import Entry, RTreeNode
from repro.core.rtree.rtree import GuttmanRTree
from repro.core.rtree.splits import split_rstar
from repro.geometry import Rect
from repro.storage.context import StorageContext


class RStarTree(GuttmanRTree):
    name = "R*"
    _split_fn = staticmethod(split_rstar)

    #: Fraction of entries force-reinserted on first overflow (paper: 30 %).
    REINSERT_FRACTION = 0.3
    #: For large fanouts the R*-tree authors evaluate the overlap criterion
    #: only on the entries with least area enlargement.
    CHOOSE_SUBTREE_CANDIDATES = 32

    def __init__(
        self,
        ctx: StorageContext,
        min_fill: float = 0.4,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(ctx, split=split_rstar, min_fill=min_fill, capacity=capacity)

    # ------------------------------------------------------------------
    # Choose subtree
    # ------------------------------------------------------------------
    def _choose_subtree(self, node: RTreeNode, rect: Rect, level: int) -> int:
        self.ctx.counters.bbox_comps += len(node.entries)
        if level != 1:
            # Children are not leaves: least area enlargement, ties by area.
            best, best_key = 0, None
            for idx, (r, _) in enumerate(node.entries):
                key = (r.enlargement(rect), r.area())
                if best_key is None or key < best_key:
                    best_key = key
                    best = idx
            return best

        # Children are leaves: least increase of overlap with the brothers,
        # ties by least enlargement, then least area.
        entries = node.entries

        # Lossless shortcut: a rectangle that already contains the new one
        # has zero enlargement and therefore zero overlap increase, which
        # no other entry can beat (the increase is never negative), and
        # the (overlap, enlargement, area) tie-break reduces to least
        # area among the containing entries.
        best, best_area = -1, None
        for idx, (r, _) in enumerate(entries):
            if r.contains_rect(rect):
                area = r.area()
                if best_area is None or area < best_area:
                    best_area = area
                    best = idx
        if best >= 0:
            return best

        ranked = sorted(
            range(len(entries)),
            key=lambda i: (entries[i][0].enlargement(rect), entries[i][0].area()),
        )
        candidates = ranked[: self.CHOOSE_SUBTREE_CANDIDATES]

        best, best_key = candidates[0], None
        qxmin, qymin, qxmax, qymax = rect
        for i in candidates:
            r_i = entries[i][0]
            ixmin, iymin, ixmax, iymax = r_i
            mxmin = ixmin if ixmin <= qxmin else qxmin
            mymin = iymin if iymin <= qymin else qymin
            mxmax = ixmax if ixmax >= qxmax else qxmax
            mymax = iymax if iymax >= qymax else qymax
            overlap_delta = 0.0
            for j, (r_j, _) in enumerate(entries):
                if j == i:
                    continue
                jxmin, jymin, jxmax, jymax = r_j
                # overlap(merged, r_j) - overlap(r_i, r_j), inlined: this
                # pair of computations runs ~M times per leaf-level choose.
                w = (mxmax if mxmax <= jxmax else jxmax) - (
                    mxmin if mxmin >= jxmin else jxmin
                )
                if w > 0:
                    h = (mymax if mymax <= jymax else jymax) - (
                        mymin if mymin >= jymin else jymin
                    )
                    if h > 0:
                        overlap_delta += w * h
                w = (ixmax if ixmax <= jxmax else jxmax) - (
                    ixmin if ixmin >= jxmin else jxmin
                )
                if w > 0:
                    h = (iymax if iymax <= jymax else jymax) - (
                        iymin if iymin >= jymin else jymin
                    )
                    if h > 0:
                        overlap_delta -= w * h
            self.ctx.counters.bbox_comps += len(entries) - 1
            key = (
                overlap_delta,
                (mxmax - mxmin) * (mymax - mymin) - (ixmax - ixmin) * (iymax - iymin),
                (ixmax - ixmin) * (iymax - iymin),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best

    # ------------------------------------------------------------------
    # Forced reinsertion
    # ------------------------------------------------------------------
    def _handle_overflow(
        self,
        page_id: int,
        node: RTreeNode,
        level: int,
        has_parent: bool,
        overflow_levels: Set[int],
    ) -> Optional[List[Entry]]:
        if not has_parent or level in overflow_levels:
            return None  # split instead
        overflow_levels.add(level)

        center = node.mbr().center()
        p = max(1, int(round(self.REINSERT_FRACTION * len(node.entries))))

        def dist2(entry: Entry) -> float:
            c = entry[0].center()
            dx = c.x - center.x
            dy = c.y - center.y
            return dx * dx + dy * dy

        by_distance = sorted(node.entries, key=dist2)
        node.entries = by_distance[:-p]
        self.ctx.pool.mark_dirty(page_id)
        # "Close reinsert": put back the nearer evicted entries first.
        return by_distance[-p:]
