"""Query 4: the minimal enclosing polygon of a point.

The paper's recipe (Section 5): run one nearest-segment query, then walk
the boundary of the polygon surrounding the query point by "repeatedly
executing query 2 and determining the right line segment from the ones
that are returned".

"The right line segment" is the classic planar face walk: arriving at
vertex ``v`` along edge ``(u, v)``, the next edge is the incident edge
whose direction makes the smallest strictly-positive *clockwise* angle
with the direction back toward ``u``. That choice keeps the face interior
on the left of every directed edge, so starting from the nearest segment
oriented with the query point on its left, the walk traces exactly the
face containing the point. Dead-end edges are walked in and out (the
angle to the reverse direction is treated as a full turn), as in any
DCEL-style face extraction.

The map is planar (TIGER data is noded, and so is our generator), which
this traversal requires.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.core.interface import SpatialIndex
from repro.core.queries.nearest import scalar_nearest_segment
from repro.core.queries.point import scalar_incident_segments
from repro.geometry import Point
from repro.geometry.predicates import orientation, pseudo_angle


class PolygonResult(NamedTuple):
    """The walked face.

    ``seg_ids`` lists each boundary edge in walk order (an edge walked in
    and out again -- a dead end -- appears twice). ``vertices`` is the
    closed vertex cycle (first == last when ``closed``). ``is_outer`` is
    true when the walk traced the unbounded outer face, which happens for
    query points outside every polygon of the map; its boundary comes back
    clockwise, detected by a negative shoelace area.
    """

    seg_ids: List[int]
    vertices: List[Point]
    closed: bool
    is_outer: bool

    @property
    def size(self) -> int:
        """Number of boundary edges (the paper's 'polygon size')."""
        return len(self.seg_ids)

    def area(self) -> float:
        """Enclosed area by the shoelace formula (0 for open walks;
        the magnitude of the hull area for the outer face)."""
        if not self.closed:
            return 0.0
        return abs(_signed_area2(self.vertices)) / 2.0


def _signed_area2(vertices: List[Point]) -> float:
    """Twice the shoelace area of the (closed) vertex cycle."""
    total = 0.0
    for a, b in zip(vertices, vertices[1:]):
        total += a.x * b.y - b.x * a.y
    return total


def walk_enclosing_polygon(
    index: SpatialIndex, p: Point, max_steps: int
) -> Optional[PolygonResult]:
    """The face walk, with one point-incidence lookup per vertex (one per
    boundary edge). Returns ``None`` on an empty index. Raises
    ``RuntimeError`` if the walk fails to close within ``max_steps``
    (non-planar input).
    """
    found = scalar_nearest_segment(index, p)
    if found is None:
        return None
    seg_id, _ = found
    seg = index.ctx.segments.fetch(seg_id)

    a, b = seg.start, seg.end
    # Orient the first edge so the query point lies to its left; for a
    # point exactly on the supporting line either face touches it and the
    # orientation is kept as stored.
    if orientation(a, b, p) < 0:
        a, b = b, a

    start = (a, b)
    seg_ids = [seg_id]
    vertices = [a, b]
    u, v = a, b
    current_id = seg_id

    for _ in range(max_steps):
        incident = scalar_incident_segments(index, v)
        back = pseudo_angle(u.x - v.x, u.y - v.y)

        best_id: Optional[int] = None
        best_w: Optional[Point] = None
        best_turn = 5.0  # clockwise pseudo-angle in (0, 4]
        for sid, s in incident:
            w = s.other_endpoint(v)
            if w == v:
                continue  # degenerate loop edge
            turn = (back - pseudo_angle(w.x - v.x, w.y - v.y)) % 4.0
            if turn == 0.0:
                # The reverse edge itself: a dead end costs a full turn.
                turn = 4.0
            if turn < best_turn or (turn == best_turn and sid < (best_id or 0)):
                best_turn = turn
                best_id = sid
                best_w = w

        if best_id is None:
            # Isolated segment: walk back along it (degenerate face).
            best_id = current_id
            best_w = u

        if (v, best_w) == start:
            return PolygonResult(
                seg_ids, vertices, closed=True,
                is_outer=_signed_area2(vertices) < 0,
            )

        seg_ids.append(best_id)
        vertices.append(best_w)
        u, v = v, best_w
        current_id = best_id

    raise RuntimeError(
        f"polygon walk did not close within {max_steps} steps; "
        "is the map planar (noded at all crossings)?"
    )
