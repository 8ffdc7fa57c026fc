"""Exact orientation predicates and angular ordering.

All predicates are exact for integer inputs because they reduce to signs of
integer cross products; that exactness is what lets the polygon-traversal
query walk a planar map without robustness escapes.
"""

from __future__ import annotations

from repro.geometry.point import Point


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product ``(b - a) x (c - a)``.

    Returns ``1`` when ``a, b, c`` make a left (counter-clockwise) turn,
    ``-1`` for a right (clockwise) turn, and ``0`` when collinear.
    """
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def collinear_point_on_segment(a: Point, b: Point, p: Point) -> bool:
    """Whether ``p``, known to be collinear with ``ab``, lies on segment ``ab``."""
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Closed segment intersection test (shared endpoints count).

    The standard orientation-based test, exact for integer coordinates.
    """
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and collinear_point_on_segment(p1, p2, q1):
        return True
    if o2 == 0 and collinear_point_on_segment(p1, p2, q2):
        return True
    if o3 == 0 and collinear_point_on_segment(q1, q2, p1):
        return True
    if o4 == 0 and collinear_point_on_segment(q1, q2, p2):
        return True
    return False


def pseudo_angle(dx: float, dy: float) -> float:
    """A monotone stand-in for ``atan2(dy, dx)`` on ``[0, 4)``.

    Increases counter-clockwise starting from the positive x axis, with no
    trigonometry, so sorting edges around a vertex is cheap and (for integer
    inputs) free of rounding surprises everywhere except exact ties, which
    correspond to genuinely collinear directions.

    Raises ``ValueError`` for the zero vector, which has no direction.
    """
    if dx == 0 and dy == 0:
        raise ValueError("pseudo_angle() of zero vector")
    ax = abs(dx)
    ay = abs(dy)
    p = dy / (ax + ay)  # in [-1, 1], monotone with angle in each half-plane
    if dx < 0:
        p = 2 - p  # quadrants II/III
    elif dy < 0:
        p = 4 + p  # quadrant IV
    return p
