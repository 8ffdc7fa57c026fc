"""The R-tree family's searches: one loop each, shared by every variant.

Guttman, R* and R+ nodes share the shape these functions rely on --
``is_leaf`` plus ``entries`` of ``(rect, ref)`` pairs -- and search them
identically: pop a page, charge one bounding-box comparison per entry,
collect matching leaf refs, push matching children (for R+ the regions
are disjoint, so a point matches at most the boundary-sharing children).

These loops are both the served path and the EXPLAIN path. Each fetches
the calling thread's profile once on entry; when one is attached it
brackets every node visit in an :class:`~repro.obs.explain.ExplainProfile`
window, which reads the counters and changes nothing the loop does.

This lives in ``repro.core`` (not ``repro.obs``) deliberately: the charge
``counters.bbox_comps += len(node.entries)`` is a counter mutation, and
lint rule RP03 restricts those to the storage and core layers that own
the measurement.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.core.interface import NNItem, NNQuery, query_lower_bound
from repro.geometry import Rect
from repro.obs.trace import TRACER
from repro.storage.context import StorageContext


def search_tree(
    ctx: StorageContext,
    root_id: int,
    matches: Callable[[Rect, Any], bool],
    query: Any,
) -> List[int]:
    """Refs of the leaf entries whose rectangle ``matches`` the query.

    ``matches`` is the :class:`Rect` predicate the search descends by:
    ``Rect.contains_point`` for a point query, ``Rect.intersects`` for a
    window.
    """
    prof = TRACER.current_profile() if TRACER.profiling else None
    pool = ctx.pool
    counters = ctx.counters
    out: List[int] = []
    stack = [root_id]
    while stack:
        page_id = stack.pop()
        if prof is not None:
            prof.open(counters)
        node = pool.get(page_id)
        counters.bbox_comps += len(node.entries)
        matched = [ref for r, ref in node.entries if matches(r, query)]
        if prof is not None:
            prof.close_node(page_id, len(node.entries), matched, node.is_leaf)
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
    """
    prof = TRACER.current_profile() if TRACER.profiling else None
    if prof is not None:
        prof.open(ctx.counters)
    node = ctx.pool.get(ref)
    n = len(node.entries)
    ctx.counters.bbox_comps += n
    if prof is not None:
        prof.close_node(ref, n, [child for _, child in node.entries], node.is_leaf)
    if node.is_leaf:
        # As in the paper's implementations, examining a leaf examines
        # its segments: candidates inherit the leaf's own lower bound,
        # so every entry of a leaf nearer than the answer is fetched
        # and compared (per-entry MBR distances would prune further,
        # but would not reproduce the measured segment comparisons).
        if not node.entries:
            return []
        d = query_lower_bound(p, Rect.union_of(r for r, _ in node.entries))
        return [NNItem(d, True, child) for _, child in node.entries]
    return [
        NNItem(query_lower_bound(p, r), False, child) for r, child in node.entries
    ]
