"""Segment/rectangle clipping.

The paper stores, per bucket, only *pointers* to full line segments; the
part of a segment inside a block (its *q-edge*) is recovered on demand by
clipping the segment against the block. Both textbook algorithms the paper
cites (via Foley et al.) are provided: Cohen-Sutherland and Liang-Barsky.
They are cross-checked against each other in the property tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect

# Cohen-Sutherland outcodes.
_INSIDE = 0
_LEFT = 1
_RIGHT = 2
_BOTTOM = 4
_TOP = 8


def _outcode(x: float, y: float, r: Rect) -> int:
    code = _INSIDE
    if x < r.xmin:
        code |= _LEFT
    elif x > r.xmax:
        code |= _RIGHT
    if y < r.ymin:
        code |= _BOTTOM
    elif y > r.ymax:
        code |= _TOP
    return code


def clip_cohen_sutherland(
    p1: Point, p2: Point, rect: Rect
) -> Optional[Tuple[Point, Point]]:
    """Clip segment ``p1 p2`` to ``rect`` with the Cohen-Sutherland algorithm.

    Returns the clipped endpoints, or ``None`` when the segment misses the
    rectangle entirely. Grazing contact (a single boundary point) returns a
    degenerate segment, matching the closed-rectangle convention used by
    the indexes.
    """
    x1, y1 = p1
    x2, y2 = p2
    code1 = _outcode(x1, y1, rect)
    code2 = _outcode(x2, y2, rect)

    while True:
        if not (code1 | code2):
            return Point(x1, y1), Point(x2, y2)
        if code1 & code2:
            return None

        # Pick an endpoint that is outside and move it to the boundary.
        out = code1 if code1 else code2
        if out & _TOP:
            x = x1 + (x2 - x1) * (rect.ymax - y1) / (y2 - y1)
            y = rect.ymax
        elif out & _BOTTOM:
            x = x1 + (x2 - x1) * (rect.ymin - y1) / (y2 - y1)
            y = rect.ymin
        elif out & _RIGHT:
            y = y1 + (y2 - y1) * (rect.xmax - x1) / (x2 - x1)
            x = rect.xmax
        else:  # _LEFT
            y = y1 + (y2 - y1) * (rect.xmin - x1) / (x2 - x1)
            x = rect.xmin

        if out == code1:
            x1, y1 = x, y
            code1 = _outcode(x1, y1, rect)
        else:
            x2, y2 = x, y
            code2 = _outcode(x2, y2, rect)


def clip_liang_barsky(
    p1: Point, p2: Point, rect: Rect
) -> Optional[Tuple[Point, Point]]:
    """Clip segment ``p1 p2`` to ``rect`` with the Liang-Barsky algorithm.

    Parametric clipping; returns the same results as Cohen-Sutherland (up
    to floating-point rounding) with fewer intersection computations.
    """
    x1, y1 = p1
    x2, y2 = p2
    dx = x2 - x1
    dy = y2 - y1

    t0 = 0.0
    t1 = 1.0
    for p, q in (
        (-dx, x1 - rect.xmin),
        (dx, rect.xmax - x1),
        (-dy, y1 - rect.ymin),
        (dy, rect.ymax - y1),
    ):
        if p == 0:
            if q < 0:
                return None  # parallel and outside this boundary
            continue
        t = q / p
        if p < 0:
            if t > t1:
                return None
            if t > t0:
                t0 = t
        else:
            if t < t0:
                return None
            if t < t1:
                t1 = t

    return (
        Point(x1 + t0 * dx, y1 + t0 * dy),
        Point(x1 + t1 * dx, y1 + t1 * dy),
    )


def segment_intersects_rect(p1: Point, p2: Point, rect: Rect) -> bool:
    """Does segment ``p1 p2`` meet the closed rectangle?"""
    return segment_intersects_box(p1[0], p1[1], p2[0], p2[1], *rect)


def segment_intersects_box(
    x1: float, y1: float, x2: float, y2: float,
    xmin: float, ymin: float, xmax: float, ymax: float,
) -> bool:
    """Fast boolean on bare coordinates: does the segment meet the closed box?

    Used on every insertion into the disjoint structures (R+-tree, PMR
    quadtree) to decide which blocks a segment belongs to and on every
    window verification, so it builds no ``Point`` or ``Rect`` and
    settles the common cases -- an endpoint inside, the whole segment
    beyond one side -- on comparisons alone.
    """
    if xmin <= x1 <= xmax and ymin <= y1 <= ymax:
        return True
    if xmin <= x2 <= xmax and ymin <= y2 <= ymax:
        return True
    if (
        (x1 < xmin and x2 < xmin)
        or (x1 > xmax and x2 > xmax)
        or (y1 < ymin and y2 < ymin)
        or (y1 > ymax and y2 > ymax)
    ):
        return False

    # Both endpoints outside, on different sides: the segment meets the
    # box iff the four corners do not all lie strictly on one side of
    # the segment's supporting line.
    dx = x2 - x1
    dy = y2 - y1
    sign = 0
    for cx, cy in ((xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)):
        cross = dx * (cy - y1) - dy * (cx - x1)
        if cross > 0:
            if sign < 0:
                return True
            sign = 1
        elif cross < 0:
            if sign > 0:
                return True
            sign = -1
        else:
            return True  # a corner lies on the line, within the slab test above

    return False
