"""The R-tree family's searches: one loop each, shared by every variant
through one base class (:class:`NodeTree`).

Guttman, R* and R+ nodes share the shape these functions rely on --
``is_leaf`` plus ``entries`` of ``(rect, ref)`` pairs -- and search them
identically: pop a page, charge one bounding-box comparison per entry,
collect matching leaf refs, push matching children (for R+ the regions
are disjoint, so a point matches at most the boundary-sharing children).

These loops are both the served path and the EXPLAIN path. Each reads
``ctx.profile`` once on entry -- the engine sets it, under the pool
latch, only for an EXPLAIN -- and when one is set brackets every node
visit in an :class:`~repro.obs.explain.ExplainProfile` window, which
reads the counters and changes nothing the loop does.

This lives in ``repro.core`` (not ``repro.obs``) deliberately: the charge
``counters.bbox_comps += len(node.entries)`` is a counter mutation, and
lint rule RP03 restricts those to the storage and core layers that own
the measurement.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from repro.core.interface import (
    NNItem,
    NNQuery,
    SegmentQuery,
    SpatialIndex,
    query_lower_bound,
)
from repro.geometry import Point, Rect
from repro.storage.context import StorageContext
from repro.storage.layout import (
    RTREE_PAGE_HEADER_BYTES,
    RTREE_TUPLE_BYTES,
    entries_per_page,
)


def search_tree(
    ctx: StorageContext,
    root_id: int,
    qx1: float,
    qy1: float,
    qx2: float,
    qy2: float,
) -> List[int]:
    """Refs of the leaf entries whose rectangle meets the closed window
    ``[qx1, qx2] x [qy1, qy2]``.

    The test is closed intersection, made on the unpacked entry in place
    with no call per entry. A point query is the zero-extent window
    ``(px, py, px, py)``: closed containment of a point is closed
    intersection with that degenerate rectangle, so both searches run
    this one loop.
    """
    prof = ctx.profile
    get = ctx.pool.get
    counters = ctx.counters
    out: List[int] = []
    stack = [root_id]
    while stack:
        page_id = stack.pop()
        if prof is not None:
            prof.open(counters)
        node = get(page_id)
        entries = node.entries
        counters.bbox_comps += len(entries)
        matched = [
            ref
            for (x1, y1, x2, y2), ref in entries
            if x1 <= qx2 and qx1 <= x2 and y1 <= qy2 and qy1 <= y2
        ]
        if prof is not None:
            prof.close_node(page_id, len(entries), matched, node.is_leaf)
        if node.is_leaf:
            out.extend(matched)
        else:
            stack.extend(matched)
    return out


def expand_node(ctx: StorageContext, ref: Any, p: NNQuery) -> List[NNItem]:
    """One nearest-neighbour node expansion.

    A leaf's candidates are lower-bounded by the distance to the union
    of its entry rectangles: the node MBR for Guttman/R*, and for R+ the
    content bound (its stored regions are partition tiles, which say
    nothing about where in the tile the segments lie).

    For a point query an inner node's children are bounded in place by
    :func:`~repro.geometry.point_rect_distance2`'s own float operations,
    and the items are built by ``tuple.__new__`` (a C call, where
    ``NNItem(...)`` is a Python-level ``__new__``).
    """
    prof = ctx.profile
    if prof is not None:
        prof.open(ctx.counters)
    node = ctx.pool.get(ref)
    entries = node.entries
    n = len(entries)
    ctx.counters.bbox_comps += n
    if prof is not None:
        prof.close_node(ref, n, [child for _, child in entries], node.is_leaf)
    new = tuple.__new__
    if node.is_leaf:
        # As in the paper's implementations, examining a leaf examines
        # its segments: candidates inherit the leaf's own lower bound,
        # so every entry of a leaf nearer than the answer is fetched
        # and compared (per-entry MBR distances would prune further,
        # but would not reproduce the measured segment comparisons).
        if not entries:
            return []
        d = query_lower_bound(p, Rect.union_of([r for r, _ in entries]))
        return [new(NNItem, (d, True, child)) for _, child in entries]
    if isinstance(p, SegmentQuery):
        return [
            NNItem(query_lower_bound(p, r), False, child) for r, child in entries
        ]
    px, py = p
    items: List[NNItem] = []
    append = items.append
    for (x1, y1, x2, y2), child in entries:
        dx = x1 - px if px < x1 else px - x2 if px > x2 else 0.0
        dy = y1 - py if py < y1 else py - y2 if py > y2 else 0.0
        append(new(NNItem, (dx * dx + dy * dy, False, child)))
    return items


class NodeTree(SpatialIndex):
    """What the R-tree family shares: one node per page, ``(rect, ref)``
    entries (the paper's 20-byte 2-tuples), reached from ``root_id`` by
    the loops above. Guttman's R-tree, the R*-tree and the R+-tree are
    insertion and split policies over it."""

    root_id: int
    _height: int
    _page_ids: Set[int]

    def _node_capacity(self, capacity: Optional[int]) -> int:
        """``capacity``, or what a page of this context holds."""
        if capacity is None:
            capacity = entries_per_page(
                self.ctx.page_size, RTREE_TUPLE_BYTES, RTREE_PAGE_HEADER_BYTES
            )
        if capacity < 4:
            raise ValueError(f"page too small: node capacity {capacity} < 4")
        return capacity

    def candidate_ids_at_point(self, p: Point) -> List[int]:
        px, py = p
        return search_tree(self.ctx, self.root_id, px, py, px, py)

    def candidate_ids_in_rect(self, rect: Rect) -> List[int]:
        return search_tree(self.ctx, self.root_id, *rect)

    def nn_start(self, p: Point) -> List[NNItem]:
        return [NNItem(0.0, False, self.root_id)]

    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        return expand_node(self.ctx, ref, p)

    def height(self) -> int:
        return self._height

    def leaf_occupancy(self) -> float:
        """Average entries per leaf page (Concluding Remarks). Peeks:
        looking at a structure is never charged."""
        nodes = [self.ctx.disk.peek(pid) for pid in self._page_ids]
        leaves = [len(node.entries) for node in nodes if node.is_leaf]
        return sum(leaves) / len(leaves) if leaves else 0.0
