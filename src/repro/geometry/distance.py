"""Squared Euclidean distances between points, segments, and rectangles.

Squared distances are used throughout (the nearest-segment search only
compares distances), so no square roots are taken on the hot path.
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.rect import Rect


def point_point_distance2(a: Point, b: Point) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def point_segment_distance2(p: Point, a: Point, b: Point) -> float:
    """Squared distance from point ``p`` to the closed segment ``ab``."""
    return point_segment_distance2_xy(p[0], p[1], a[0], a[1], b[0], b[1])


def point_segment_distance2_xy(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """:func:`point_segment_distance2` on bare coordinates (the
    per-candidate path of nearest-neighbour search builds no points)."""
    abx = bx - ax
    aby = by - ay
    apx = px - ax
    apy = py - ay
    denom = abx * abx + aby * aby
    if denom == 0:  # degenerate segment
        return apx * apx + apy * apy
    t = (apx * abx + apy * aby) / denom
    if t <= 0:
        return apx * apx + apy * apy
    if t >= 1:
        bpx = px - bx
        bpy = py - by
        return bpx * bpx + bpy * bpy
    cx = ax + t * abx - px
    cy = ay + t * aby - py
    return cx * cx + cy * cy


def point_rect_distance2(p: Point, r: Rect) -> float:
    """Squared distance from ``p`` to the closed rectangle ``r``.

    Zero when ``p`` is inside or on the boundary. This is the MINDIST
    lower bound that drives best-first nearest-neighbour search over both
    R-tree nodes and quadtree blocks.
    """
    dx = 0.0
    if p.x < r.xmin:
        dx = r.xmin - p.x
    elif p.x > r.xmax:
        dx = p.x - r.xmax
    dy = 0.0
    if p.y < r.ymin:
        dy = r.ymin - p.y
    elif p.y > r.ymax:
        dy = p.y - r.ymax
    return dx * dx + dy * dy


def segment_segment_distance2(
    a1: Point, a2: Point, b1: Point, b2: Point
) -> float:
    """Squared distance between two closed segments (zero if they meet)."""
    from repro.geometry.predicates import segments_intersect

    if segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(
        point_segment_distance2(a1, b1, b2),
        point_segment_distance2(a2, b1, b2),
        point_segment_distance2(b1, a1, a2),
        point_segment_distance2(b2, a1, a2),
    )


def rect_rect_distance2(a: Rect, b: Rect) -> float:
    """Squared distance between two closed rectangles (zero if they meet)."""
    dx = 0.0
    if a.xmax < b.xmin:
        dx = b.xmin - a.xmax
    elif b.xmax < a.xmin:
        dx = a.xmin - b.xmax
    dy = 0.0
    if a.ymax < b.ymin:
        dy = b.ymin - a.ymax
    elif b.ymax < a.ymin:
        dy = a.ymin - b.ymax
    return dx * dx + dy * dy
