"""Query 5: the window (range) query.

The traversal itself now lives behind the backend seam: callers build a
:class:`~repro.core.queries.spec.QuerySpec` and execute it through a
:class:`~repro.core.interface.TraversalBackend`. The scalar reference
implementation -- candidate generation through the index, then the
dedup/fetch/verify loop -- stays here; the vectorized backend reuses the
same verify helpers so the two paths stay charge-identical.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.interface import SpatialIndex
from repro.geometry import Rect
from repro.obs.explain import (
    CAUSE_SEGMENT_TABLE,
    COUNT_CANDIDATES,
    COUNT_DUPLICATES,
    COUNT_RESULTS,
    COUNT_SEGMENT_FETCHES,
)
from repro.obs.trace import TRACER


def scalar_window_query(
    index: SpatialIndex, window: Rect, mode: str = "intersects"
) -> List[int]:
    """The scalar reference implementation of query 5.

    ``mode`` selects the spatial predicate:

    * ``"intersects"`` (the paper's reading: "find all roads that pass
      through a given region") -- any part of the segment meets the
      window;
    * ``"contains"`` -- both endpoints lie inside the window (the
      segment is entirely within it).

    Candidates come from the index (R-tree traversal or the PMR window
    decomposition over blocks); each unique candidate is verified against
    its actual geometry, which is one segment comparison.
    """
    if mode not in ("intersects", "contains"):
        raise ValueError(f"mode must be 'intersects' or 'contains', got {mode!r}")
    if TRACER.profiling and (prof := TRACER.current_profile()) is not None:
        return verify_window_profiled(
            index, index.candidate_ids_in_rect(window), window, mode, prof
        )
    return verify_window(
        index, index.candidate_ids_in_rect(window), window, mode
    )


def verify_window(
    index: SpatialIndex, candidates: Iterable[int], window: Rect, mode: str
) -> List[int]:
    """Dedup candidates by id, fetch each once, verify against geometry.

    Shared by both backends: the vectorized path feeds it its own
    candidate stream in profiling-free runs it replaces only the final
    geometry predicate with an array pass, keeping the fetch order (and
    therefore every counter) identical.
    """
    out: List[int] = []
    seen = set()
    for seg_id in candidates:
        if seg_id in seen:
            continue
        seen.add(seg_id)
        seg = index.ctx.segments.fetch(seg_id)
        if mode == "intersects":
            if seg.intersects_rect(window):
                out.append(seg_id)
        else:
            if window.contains_point(seg.start) and window.contains_point(seg.end):
                out.append(seg_id)
    return out


def verify_window_profiled(
    index: SpatialIndex,
    candidates: Iterable[int],
    window: Rect,
    mode: str,
    prof,
) -> List[int]:
    """The same dedup/verify loop, attributing the segment-table fetches.

    The candidate/duplicate tallies expose the R+ and PMR duplication
    directly: candidates minus unique fetches is the number of extra
    copies the structure's tiling produced for this window.
    """
    counters = index.ctx.counters
    out: List[int] = []
    seen = set()
    for seg_id in candidates:
        prof.count(COUNT_CANDIDATES)
        if seg_id in seen:
            prof.count(COUNT_DUPLICATES)
            continue
        seen.add(seg_id)
        with prof.charge(CAUSE_SEGMENT_TABLE, counters) as bucket:
            seg = index.ctx.segments.fetch(seg_id)
        bucket.node_visits += 1
        prof.count(COUNT_SEGMENT_FETCHES)
        if mode == "intersects":
            if seg.intersects_rect(window):
                out.append(seg_id)
                prof.count(COUNT_RESULTS)
        else:
            if window.contains_point(seg.start) and window.contains_point(seg.end):
                out.append(seg_id)
                prof.count(COUNT_RESULTS)
    return out
