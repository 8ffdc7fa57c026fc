"""Query 3: nearest line segment, by incremental best-first search.

This is the Hjaltason-Samet priority-queue algorithm the paper cites (via
[11]): a single heap holds index nodes (keyed by a lower bound on the
distance to anything inside them), unverified segment candidates (keyed by
the bound inherited from the node that produced them), and verified
segments (keyed by their true distance). When a verified segment reaches
the top of the heap nothing nearer can exist, so results stream out in
distance order -- ``iter_nearest`` can be resumed for k-nearest queries at
no extra cost.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Iterator, Optional, Tuple, Union

from repro.core.interface import SegmentQuery, SpatialIndex
from repro.geometry import Point, Segment
from repro.geometry.distance import point_segment_distance2_xy, segment_segment_distance2
from repro.obs.explain import (
    CAUSE_SEGMENT_TABLE,
    COUNT_CANDIDATES,
    COUNT_SEGMENT_FETCHES,
)

# Heap entry kinds. On distance ties, nodes expand and candidates verify
# BEFORE any verified segment is yielded, and verified ties order by
# segment id -- so exact ties (e.g. several segments meeting at the
# vertex nearest to the query) resolve identically in every structure.
_NODE = 0
_CANDIDATE = 1
_VERIFIED = 2


def _explained_fetch(prof, counters, fetch):
    """``fetch`` with each call tallied and landed in ``segment_table``."""

    def explained(seg_id: int) -> Segment:
        prof.count(COUNT_CANDIDATES)
        prof.open(counters)
        seg = fetch(seg_id)
        prof.close_cause(CAUSE_SEGMENT_TABLE)
        prof.count(COUNT_SEGMENT_FETCHES)
        return seg

    return explained


def iter_nearest(
    index: SpatialIndex, query: Union[Point, Segment, SegmentQuery]
) -> Iterator[Tuple[int, float]]:
    """Yield ``(seg_id, distance^2)`` in non-decreasing distance order.

    ``query`` may be a point (the paper's query 3) or a segment (the
    "nearest line to a given line" of Section 2); segment queries are
    bounded by MBR-to-rectangle distances during the search.
    """
    if isinstance(query, Segment):
        query = SegmentQuery.of(query)
    tiebreak = count()
    heap = []
    for item in index.nn_start(query):
        kind = _CANDIDATE if item.is_segment else _NODE
        heapq.heappush(heap, (item.dist2, kind, next(tiebreak), item.ref))

    # Captured once per search, not per pop: the engine sets the EXPLAIN
    # profile on the context for the whole query before this generator
    # advances.
    prof = index.ctx.profile
    fetch = index.ctx.segments.fetch
    if prof is not None:
        fetch = _explained_fetch(prof, index.ctx.counters, fetch)
    expand = index.nn_expand
    q = query.segment if isinstance(query, SegmentQuery) else None
    resolved = set()
    while heap:
        dist2, kind, _, ref = heapq.heappop(heap)
        if kind == _VERIFIED:
            yield ref, dist2
        elif kind == _CANDIDATE:
            if ref in resolved:
                continue
            resolved.add(ref)
            seg = fetch(ref)
            if q is None:
                true_d2 = point_segment_distance2_xy(query[0], query[1], *seg)
            else:
                true_d2 = segment_segment_distance2(q.start, q.end, seg.start, seg.end)
            heapq.heappush(heap, (true_d2, _VERIFIED, ref, ref))
        else:
            for item_dist2, is_segment, item_ref in expand(ref, query):
                child_kind = _CANDIDATE if is_segment else _NODE
                if is_segment and item_ref in resolved:
                    continue
                heapq.heappush(
                    heap, (item_dist2, child_kind, next(tiebreak), item_ref)
                )


def scalar_nearest_segment(
    index: SpatialIndex, p: Point
) -> Optional[Tuple[int, float]]:
    """Query 3: the nearest segment to ``p``, or ``None``."""
    for seg_id, dist2 in iter_nearest(index, p):
        return seg_id, dist2
    return None


def scalar_nearest_k(
    index: SpatialIndex, p: Point, k: int
) -> "list[Tuple[int, float]]":
    """The ``k`` nearest segments to ``p``, nearest first.

    Costs no more than a single nearest-neighbour query plus the extra
    expansion needed for the additional results -- the advantage of the
    incremental formulation over repeated range guessing.
    """
    out = []
    for seg_id, dist2 in iter_nearest(index, p):
        out.append((seg_id, dist2))
        if len(out) == k:
            break
    return out


def nearest_segment_to_segment(
    index: SpatialIndex, query: Segment, exclude: Optional[int] = None
) -> Optional[Tuple[int, float]]:
    """Section 2's other proximity question: the stored segment nearest
    to a *query segment* (e.g. "which other road runs closest to this
    one?"). ``exclude`` skips an id, typically the query segment's own
    when it is itself stored in the index."""
    for seg_id, dist2 in iter_nearest(index, query):
        if seg_id != exclude:
            return seg_id, dist2
    return None
