"""Queries 1 and 2: point-incidence searches.

These are the paper's "more realistic" point queries: rather than
returning the block containing a point, they return the segments
*incident* at it. Candidates are deduplicated by id before their geometry
is fetched (the id is stored in the node, so no real implementation would
fetch a segment twice), then verified against the segment table -- each
verification is one of the paper's segment comparisons.

Callers execute ``QuerySpec.point`` / ``incident`` / ``other_endpoint``
through :class:`~repro.core.backends.ScalarBackend`, which runs the
implementations here.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.interface import SpatialIndex
from repro.geometry import Point, Segment
from repro.obs.explain import CAUSE_SEGMENT_TABLE
from repro.obs.trace import TRACER


def fetch_unique(
    index: SpatialIndex, candidates: List[int], prof
) -> Tuple[List[int], List[Segment]]:
    """The dedup/fetch pass queries 1, 2 and 5 share: each candidate id
    once, first-seen order, with its geometry. Under EXPLAIN the pass
    is one ``segment_table`` window, one visit per id fetched -- the
    profile is consulted per query, never per candidate."""
    unique = list(dict.fromkeys(candidates))
    fetch = index.ctx.segments.fetch
    explained = prof is not None and unique
    if explained:
        prof.open(index.ctx.counters)
    segs = list(map(fetch, unique))
    if explained:
        prof.close_cause(CAUSE_SEGMENT_TABLE, visits=len(unique))
    return unique, segs


def scalar_incident_segments(
    index: SpatialIndex, p: Point
) -> List[Tuple[int, Segment]]:
    """Scalar reference implementation of the incidence lookup.

    The polygon traversal (query 4) calls this once per vertex and needs
    the directions of the incident edges, so the fetched geometry is
    returned rather than thrown away.
    """
    prof = TRACER.current_profile() if TRACER.profiling else None
    candidates = index.candidate_ids_at_point(p)
    unique, segs = fetch_unique(index, candidates, prof)
    px, py = p
    out = []
    for seg_id, seg in zip(unique, segs):  # Segment.has_endpoint, inlined
        x1, y1, x2, y2 = seg
        if (x1 == px and y1 == py) or (x2 == px and y2 == py):
            out.append((seg_id, seg))
    if prof is not None:
        prof.count_verify(len(candidates), len(unique), len(out))
    return out


def other_endpoint_via(index: SpatialIndex, p: Point, seg_id: int):
    """Query 2, composed from two point lookups.

    ``p`` is one endpoint of segment ``seg_id``; the segment is located by
    a point query at ``p`` (as the paper's formulation implies), then a
    second point query runs at its other endpoint. Returns that endpoint
    and the incident segment ids (excluding ``seg_id`` itself).
    """
    target = None
    for sid, seg in scalar_incident_segments(index, p):
        if sid == seg_id:
            target = seg
            break
    if target is None:
        raise KeyError(f"segment {seg_id} is not incident at {p!r}")
    other = target.other_endpoint(p)
    incident = scalar_incident_segments(index, other)
    return other, [sid for sid, _ in incident if sid != seg_id]
