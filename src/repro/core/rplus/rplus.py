"""The hybrid R+-tree / k-d-B-tree used in the paper.

Following Section 3 of Hoel & Samet:

* Non-leaf entries carry the raw *partition* rectangles of the k-d-B-tree
  (no minimum bounding rectangles above the leaves); sibling regions are
  disjoint and tile the parent region exactly.
* Leaf entries carry segment MBRs; a segment is stored in **every** leaf
  whose region it intersects, so point search follows a single path.
* A node is split by the axis-parallel line that cuts the fewest line
  segments (bounding rectangles for non-leaf nodes); ties are broken by
  the evenness of the resulting distribution.
* Splitting a non-leaf region along a line forces every straddling child
  to split by the same line, recursively (the k-d-B downward cascade).

As the paper notes, minimum fill cannot be guaranteed: a downward cascade
can produce nearly-empty (even empty) nodes, and a leaf whose segments all
cross every candidate line cannot be usefully split. In the latter
(pathological, never observed on road maps) case the leaf is left
overfull, and :meth:`page_count` charges the overflow pages it would
occupy on disk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import ceil
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.interface import WORLD
from repro.core.rtree.node import Entry, RTreeNode
from repro.core.treesearch import NodeTree
from repro.geometry import Rect, Segment
from repro.storage.context import StorageContext

#: A (region, page_id) pair describing one tile of a partitioned region.
Piece = Tuple[Rect, int]


def _split_region(region: Rect, axis: int, pos: float) -> Tuple[Rect, Rect]:
    if axis == 0:
        return (
            Rect(region.xmin, region.ymin, pos, region.ymax),
            Rect(pos, region.ymin, region.xmax, region.ymax),
        )
    return (
        Rect(region.xmin, region.ymin, region.xmax, pos),
        Rect(region.xmin, pos, region.xmax, region.ymax),
    )


def _clip_rect(r: Rect, region: Rect) -> Rect:
    """Clip ``r`` to ``region`` (callers guarantee they intersect)."""
    clipped = r.intersection(region)
    return clipped if clipped is not None else r


class RPlusTree(NodeTree):
    name = "R+"

    def __init__(
        self,
        ctx: StorageContext,
        world: Optional[Rect] = None,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self._open(
            {
                "capacity": self._node_capacity(capacity),
                "world": world if world is not None else WORLD,
            },
            None,
        )

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        return {"capacity": self.capacity, "world": list(self.world)}

    def state(self) -> Dict[str, Any]:
        return {
            "state": {
                "root_id": self.root_id,
                "height": self._height,
                "seg_count": self._seg_count,
                "entry_count": self._entry_count,
                "page_ids": sorted(self._page_ids),
            }
        }

    def _open(self, params: Dict[str, Any], state) -> None:
        self.capacity = params["capacity"]
        self.world = Rect(*params["world"])
        if state is None:
            root = self.ctx.pool.create(RTreeNode(is_leaf=True))
            state = {
                "root_id": root,
                "height": 1,
                "seg_count": 0,
                "entry_count": 0,
                "page_ids": [root],
            }
        else:
            state = state["state"]
        self.root_id: int = state["root_id"]
        self._height: int = state["height"]
        self._seg_count: int = state["seg_count"]
        self._entry_count: int = state["entry_count"]
        self._page_ids: Set[int] = set(state["page_ids"])

    def page_inventories(self) -> Dict[str, Set[int]]:
        return {"rplus": set(self._page_ids), **super().page_inventories()}

    def extent(self) -> Rect:
        return self.world

    @classmethod
    def extent_params(cls, extent: Rect) -> Dict[str, Any]:
        return {"world": extent}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, seg_id: int) -> None:
        seg = self.ctx.segments.fetch(seg_id)
        mbr = seg.mbr()
        pieces = self._insert_rec(self.root_id, self.world, seg, seg_id, mbr)
        if pieces is not None:
            self._grow_root(pieces)
        self._seg_count += 1

    def delete(self, seg_id: int) -> None:
        """Remove the segment from every leaf holding a copy.

        Routing uses the segment's MBR, not its exact geometry: leaf
        placement is MBR-conservative (a split can assign a copy to a
        side the segment itself only grazes), so deletion must visit at
        least every subtree placement could have reached.
        """
        seg = self.ctx.segments.fetch(seg_id)
        removed = self._delete_rec(self.root_id, self.world, seg.mbr(), seg_id)
        if removed == 0:
            raise KeyError(f"segment {seg_id} not in the tree")
        self._entry_count -= removed
        self._seg_count -= 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def page_count(self) -> int:
        """Pages including overflow pages of any pathologically-full leaf."""
        extra = 0
        for pid in self._page_ids:
            node = self.ctx.disk.peek(pid)
            if len(node.entries) > self.capacity:
                extra += ceil(len(node.entries) / self.capacity) - 1
        return len(self._page_ids) + extra

    def entry_count(self) -> int:
        """Total leaf entries; exceeds the segment count due to duplication."""
        return self._entry_count

    def segment_count(self) -> int:
        return self._seg_count

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _insert_rec(
        self, page_id: int, region: Rect, seg: Segment, seg_id: int, mbr: Rect
    ) -> Optional[List[Piece]]:
        """Insert into the subtree; return replacement pieces if it split."""
        pool = self.ctx.pool
        node: RTreeNode = pool.get(page_id)

        if node.is_leaf:
            node.entries.append((mbr, seg_id))
            self._entry_count += 1
            pool.mark_dirty(page_id)
            if len(node.entries) > self.capacity:
                return self._split_leaf(page_id, region, node)
            return None

        self.ctx.counters.bbox_comps += len(node.entries)
        replacements: Dict[int, List[Piece]] = {}
        for r, child in node.entries:
            if seg.intersects_rect(r):
                pieces = self._insert_rec(child, r, seg, seg_id, mbr)
                if pieces is not None:
                    replacements[child] = pieces
        if replacements:
            new_entries: List[Entry] = []
            for r, child in node.entries:
                if child in replacements:
                    new_entries.extend(replacements[child])
                else:
                    new_entries.append((r, child))
            node.entries = new_entries
            pool.mark_dirty(page_id)
            if len(node.entries) > self.capacity:
                return self._split_internal(page_id, region, node)
        return None

    def _grow_root(self, pieces: List[Piece]) -> None:
        root = RTreeNode(is_leaf=False, entries=list(pieces))
        self.root_id = self.ctx.pool.create(root)
        self._page_ids.add(self.root_id)
        self._height += 1

    # -- split-line selection ------------------------------------------
    def _choose_split_line(
        self, extents: Sequence[Tuple[float, float, float, float]], region: Rect
    ) -> Optional[Tuple[int, float]]:
        """Pick the (axis, position) line that cuts the fewest extents,
        ties broken by the evenness of the split.

        ``extents`` are (xmin, ymin, xmax, ymax) clipped to ``region``.
        The candidates are their strictly-interior bounds and the
        region's midline. Each is counted by bisection on the sorted
        bounds, under :meth:`_assign_side`'s rule: an extent with
        ``lo < pos`` goes left, one with ``hi > pos`` goes right, one
        with ``lo < pos < hi`` is cut, and a zero-width one lying on the
        line goes to both sides. Returns ``None`` when no such line
        makes progress on either side.
        """
        best: Optional[Tuple[int, float]] = None
        best_key: Optional[Tuple[int, int]] = None
        total = len(extents)

        for axis in (0, 1):
            lo_r = region.xmin if axis == 0 else region.ymin
            hi_r = region.xmax if axis == 0 else region.ymax
            candidates = set()
            flat: Dict[float, int] = {}  # zero-width extents by position
            for e in extents:
                lo = e[axis]
                hi = e[axis + 2]
                if lo_r < lo < hi_r:
                    candidates.add(lo)
                if lo_r < hi < hi_r:
                    candidates.add(hi)
                if lo == hi:
                    flat[lo] = flat.get(lo, 0) + 1
            mid = (lo_r + hi_r) / 2.0
            if lo_r < mid < hi_r:
                candidates.add(mid)
            los = sorted(e[axis] for e in extents)
            his = sorted(e[axis + 2] for e in extents)

            for pos in candidates:
                starts_before = bisect_left(los, pos)  # lo < pos
                ends_by = bisect_right(his, pos)  # hi <= pos
                on_line = flat.get(pos, 0)
                left = starts_before + on_line
                right = total - ends_by + on_line
                # A split must make progress on at least one side.
                if left >= total and right >= total:
                    continue
                key = (starts_before - ends_by + on_line, abs(left - right))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (axis, pos)
        return best

    @staticmethod
    def _assign_side(
        extent: Tuple[float, float, float, float], axis: int, pos: float
    ) -> Tuple[bool, bool]:
        """(in_left, in_right) membership of a clipped extent w.r.t. a line."""
        lo = extent[axis]
        hi = extent[axis + 2]
        in_left = lo < pos or hi <= pos
        in_right = hi > pos or lo >= pos
        return in_left, in_right

    # -- leaf split ------------------------------------------------------
    def _split_leaf(
        self, page_id: int, region: Rect, node: RTreeNode
    ) -> Optional[List[Piece]]:
        extents = [tuple(_clip_rect(r, region)) for r, _ in node.entries]
        choice = self._choose_split_line(extents, region)
        if choice is None:
            return None  # pathological: leave the leaf overfull
        axis, pos = choice
        left_region, right_region = _split_region(region, axis, pos)

        left_entries: List[Entry] = []
        right_entries: List[Entry] = []
        for extent, entry in zip(extents, node.entries):
            in_left, in_right = self._assign_side(extent, axis, pos)
            if in_left:
                left_entries.append(entry)
            if in_right:
                right_entries.append(entry)

        self._entry_count += len(left_entries) + len(right_entries) - len(node.entries)
        node.entries = left_entries
        self.ctx.pool.mark_dirty(page_id)
        right_id = self.ctx.pool.create(RTreeNode(is_leaf=True, entries=right_entries))
        self._page_ids.add(right_id)
        return [(left_region, page_id), (right_region, right_id)]

    # -- internal split (with downward cascade) ---------------------------
    def _split_internal(
        self, page_id: int, region: Rect, node: RTreeNode
    ) -> Optional[List[Piece]]:
        extents = [tuple(r) for r, _ in node.entries]
        choice = self._choose_split_line(extents, region)
        if choice is None:
            return None
        axis, pos = choice
        left_region, right_region = _split_region(region, axis, pos)

        left_entries: List[Entry] = []
        right_entries: List[Entry] = []
        for r, child in node.entries:
            if (r.xmax if axis == 0 else r.ymax) <= pos:
                left_entries.append((r, child))
            elif (r.xmin if axis == 0 else r.ymin) >= pos:
                right_entries.append((r, child))
            else:
                l_piece, r_piece = self._split_subtree(child, r, axis, pos)
                left_entries.append(l_piece)
                right_entries.append(r_piece)

        node.entries = left_entries
        self.ctx.pool.mark_dirty(page_id)
        right_id = self.ctx.pool.create(RTreeNode(is_leaf=False, entries=right_entries))
        self._page_ids.add(right_id)
        return [(left_region, page_id), (right_region, right_id)]

    def _split_subtree(
        self, page_id: int, region: Rect, axis: int, pos: float
    ) -> Tuple[Piece, Piece]:
        """Split a whole subtree by a line (the k-d-B downward cascade)."""
        pool = self.ctx.pool
        node: RTreeNode = pool.get(page_id)
        left_region, right_region = _split_region(region, axis, pos)

        left_entries: List[Entry] = []
        right_entries: List[Entry] = []
        if node.is_leaf:
            for r, ref in node.entries:
                extent = tuple(_clip_rect(r, region))
                in_left, in_right = self._assign_side(extent, axis, pos)
                if in_left:
                    left_entries.append((r, ref))
                if in_right:
                    right_entries.append((r, ref))
            self._entry_count += (
                len(left_entries) + len(right_entries) - len(node.entries)
            )
        else:
            for r, child in node.entries:
                if (r.xmax if axis == 0 else r.ymax) <= pos:
                    left_entries.append((r, child))
                elif (r.xmin if axis == 0 else r.ymin) >= pos:
                    right_entries.append((r, child))
                else:
                    l_piece, r_piece = self._split_subtree(child, r, axis, pos)
                    left_entries.append(l_piece)
                    right_entries.append(r_piece)

        node.entries = left_entries
        pool.mark_dirty(page_id)
        right_id = pool.create(RTreeNode(node.is_leaf, right_entries))
        self._page_ids.add(right_id)
        return (left_region, page_id), (right_region, right_id)

    # ------------------------------------------------------------------
    # Deletion internals
    # ------------------------------------------------------------------
    def _delete_rec(
        self, page_id: int, region: Rect, mbr: Rect, seg_id: int
    ) -> int:
        pool = self.ctx.pool
        node: RTreeNode = pool.get(page_id)
        if node.is_leaf:
            before = len(node.entries)
            node.entries = [e for e in node.entries if e[1] != seg_id]
            removed = before - len(node.entries)
            if removed:
                pool.mark_dirty(page_id)
            return removed
        removed = 0
        self.ctx.counters.bbox_comps += len(node.entries)
        for r, child in node.entries:
            if mbr.intersects(r):
                removed += self._delete_rec(child, r, mbr, seg_id)
        return removed
