"""Query 5: the window (range) query.

The traversal itself now lives behind the backend seam: callers build a
:class:`~repro.core.queries.spec.QuerySpec` and execute it through a
:class:`~repro.core.interface.TraversalBackend`. The scalar reference
implementation -- candidate generation through the index, then the
dedup/fetch/verify loop -- stays here; the vectorized backend replaces
the loop with an array pass that charges the same storage traffic.
"""

from __future__ import annotations

from typing import List

from repro.core.interface import SpatialIndex
from repro.geometry import Rect
from repro.obs.explain import CAUSE_SEGMENT_TABLE
from repro.obs.trace import TRACER


def scalar_window_query(
    index: SpatialIndex, window: Rect, mode: str = "intersects"
) -> List[int]:
    """The scalar reference implementation of query 5.

    ``mode`` selects the spatial predicate (validated where the plan is
    built, :meth:`QuerySpec.window`):

    * ``"intersects"`` (the paper's reading: "find all roads that pass
      through a given region") -- any part of the segment meets the
      window;
    * ``"contains"`` -- both endpoints lie inside the window (the
      segment is entirely within it).

    Candidates come from the index (R-tree traversal or the PMR window
    decomposition over blocks); each unique candidate is fetched once and
    verified against its actual geometry, which is one segment comparison.
    Under EXPLAIN each fetch lands in the ``segment_table`` cause.
    """
    prof = TRACER.current_profile() if TRACER.profiling else None
    candidates = index.candidate_ids_in_rect(window)
    out: List[int] = []
    seen = set()
    for seg_id in candidates:
        if seg_id in seen:
            continue
        seen.add(seg_id)
        if prof is not None:
            prof.open(index.ctx.counters)
        seg = index.ctx.segments.fetch(seg_id)
        if prof is not None:
            prof.close_cause(CAUSE_SEGMENT_TABLE)
        if mode == "intersects":
            if seg.intersects_rect(window):
                out.append(seg_id)
        else:
            if window.contains_point(seg.start) and window.contains_point(seg.end):
                out.append(seg_id)
    if prof is not None:
        prof.count_verify(len(candidates), len(seen), len(out))
    return out
