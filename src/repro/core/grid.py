"""The uniform grid of Section 2 (Figure 1), as an extension baseline.

Space is cut into ``granularity x granularity`` equal cells; a segment is
registered in every cell it crosses. Cell contents live in the same paged
B-tree layout as the PMR quadtree (8-byte tuples keyed by the cell's
Morton index), so storage and disk accounting are directly comparable.
As the paper notes, the uniform grid is ideal for uniformly distributed
data and wasteful for skewed data -- the benchmarks show exactly that on
the road maps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.btree import BPlusTree
from repro.core.interface import WORLD_SIZE, NNItem, SpatialIndex, query_lower_bound
from repro.core.pmr.locational import interleave
from repro.geometry import Point, Rect
from repro.storage.context import StorageContext
from repro.storage.layout import (
    BTREE_INTERNAL_ENTRY_BYTES,
    BTREE_PAGE_HEADER_BYTES,
    PMR_TUPLE_BYTES,
    entries_per_page,
)


class UniformGrid(SpatialIndex):
    name = "grid"

    def __init__(
        self,
        ctx: StorageContext,
        granularity: int = 64,
        world_size: int = WORLD_SIZE,
    ) -> None:
        super().__init__(ctx)
        if granularity < 1 or granularity & (granularity - 1):
            raise ValueError(
                f"granularity must be a positive power of two, got {granularity}"
            )
        self.granularity = granularity
        self.world_size = world_size
        self.cell_size = world_size / granularity
        cap = entries_per_page(ctx.page_size, PMR_TUPLE_BYTES, BTREE_PAGE_HEADER_BYTES)
        internal_cap = entries_per_page(
            ctx.page_size, BTREE_INTERNAL_ENTRY_BYTES, BTREE_PAGE_HEADER_BYTES
        )
        self.btree = BPlusTree(
            ctx.pool, leaf_capacity=cap, internal_capacity=internal_cap
        )
        self._seg_count = 0

    def page_inventories(self) -> Dict[str, Set[int]]:
        return {"btree": set(self.btree.page_ids), **super().page_inventories()}

    def extent(self) -> Rect:
        return Rect(0, 0, self.world_size, self.world_size)

    @classmethod
    def extent_params(cls, extent: Rect) -> Dict[str, Any]:
        return {"world_size": int(extent.width)}

    # ------------------------------------------------------------------
    # Cell helpers
    # ------------------------------------------------------------------
    def cell_rect(self, cx: int, cy: int) -> Rect:
        s = self.cell_size
        return Rect(cx * s, cy * s, (cx + 1) * s, (cy + 1) * s)

    def _cell_of(self, x: float, y: float) -> tuple:
        g = self.granularity
        cx = min(int(x / self.cell_size), g - 1)
        cy = min(int(y / self.cell_size), g - 1)
        return max(cx, 0), max(cy, 0)

    def cells_of_segment(self, seg) -> List[tuple]:
        """All grid cells a segment crosses (closed intersection)."""
        mbr = seg.mbr()
        cx0, cy0 = self._cell_of(mbr.xmin, mbr.ymin)
        cx1, cy1 = self._cell_of(mbr.xmax, mbr.ymax)
        out = []
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                if seg.intersects_rect(self.cell_rect(cx, cy)):
                    out.append((cx, cy))
        return out

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, seg_id: int) -> None:
        seg = self.ctx.segments.fetch(seg_id)
        for cx, cy in self.cells_of_segment(seg):
            self.btree.insert(interleave(cx, cy), seg_id)
        self._seg_count += 1

    def delete(self, seg_id: int) -> None:
        seg = self.ctx.segments.fetch(seg_id)
        removed = 0
        for cx, cy in self.cells_of_segment(seg):
            key = interleave(cx, cy)
            if self.btree.contains(key, seg_id):
                self.btree.delete(key, seg_id)
                removed += 1
        if removed == 0:
            raise KeyError(f"segment {seg_id} not in the grid")
        self._seg_count -= 1

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------
    def candidate_ids_at_point(self, p: Point) -> List[int]:
        cx, cy = self._cell_of(p.x, p.y)
        self.ctx.counters.bbox_comps += 1
        return list(self.btree.scan_eq(interleave(cx, cy)))

    def candidate_ids_in_rect(self, rect: Rect) -> List[int]:
        cx0, cy0 = self._cell_of(rect.xmin, rect.ymin)
        cx1, cy1 = self._cell_of(rect.xmax, rect.ymax)
        out: List[int] = []
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                self.ctx.counters.bbox_comps += 1
                out.extend(self.btree.scan_eq(interleave(cx, cy)))
        return out

    def nn_start(self, p: Point) -> List[NNItem]:
        return [NNItem(0.0, False, None)]

    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        if ref is None:
            # Expand the root marker into all cells, keyed by MINDIST.
            return [
                NNItem(query_lower_bound(p, self.cell_rect(cx, cy)), False, (cx, cy))
                for cx in range(self.granularity)
                for cy in range(self.granularity)
            ]
        cx, cy = ref
        self.ctx.counters.bbox_comps += 1
        d = query_lower_bound(p, self.cell_rect(cx, cy))
        return [
            NNItem(d, True, seg_id)
            for seg_id in self.btree.scan_eq(interleave(cx, cy))
        ]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def page_count(self) -> int:
        return self.btree.page_count

    def height(self) -> int:
        return self.btree.height

    def entry_count(self) -> int:
        return len(self.btree)

    def segment_count(self) -> int:
        return self._seg_count
