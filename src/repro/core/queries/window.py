"""Query 5: the window (range) query.

Callers build a :class:`~repro.core.queries.spec.QuerySpec` and execute
it through :class:`~repro.core.backends.ScalarBackend`, which runs the
implementation here -- candidate generation through the index, then the
dedup/fetch/verify loop. The vector kernel (:mod:`repro.core.vector`)
replaces the loop with an array pass that charges the same storage
traffic.
"""

from __future__ import annotations

from typing import List

from repro.core.interface import SpatialIndex
from repro.core.queries.point import fetch_unique
from repro.geometry import Rect
from repro.geometry.clipping import segment_intersects_box
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
    unique, segs = fetch_unique(index, candidates, prof)
    xmin, ymin, xmax, ymax = window
    if mode == "intersects":
        out = [
            seg_id
            for seg_id, seg in zip(unique, segs)
            if segment_intersects_box(*seg, xmin, ymin, xmax, ymax)
        ]
    else:
        out = [
            seg_id
            for seg_id, (x1, y1, x2, y2) in zip(unique, segs)
            if xmin <= x1 <= xmax and ymin <= y1 <= ymax
            and xmin <= x2 <= xmax and ymin <= y2 <= ymax
        ]
    if prof is not None:
        prof.count_verify(len(candidates), len(unique), len(out))
    return out
