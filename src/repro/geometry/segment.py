"""Line segment value type."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.geometry.clipping import clip_liang_barsky, segment_intersects_box
from repro.geometry.distance import point_segment_distance2_xy
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class Segment(NamedTuple):
    """A line segment given by its two endpoints.

    This is the *representative point* discussed in Section 2 of the paper:
    four coordinate values. The spatial indexes never store the geometry
    itself -- they store segment identifiers that resolve to one of these
    through the disk-resident segment table.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    # ------------------------------------------------------------------
    # Construction / views
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Segment":
        return cls(a.x, a.y, b.x, b.y)

    @property
    def start(self) -> Point:
        return Point(self.x1, self.y1)

    @property
    def end(self) -> Point:
        return Point(self.x2, self.y2)

    def endpoints(self) -> Tuple[Point, Point]:
        return self.start, self.end

    def reversed(self) -> "Segment":
        return Segment(self.x2, self.y2, self.x1, self.y1)

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the segment."""
        return Rect(
            self.x1 if self.x1 <= self.x2 else self.x2,
            self.y1 if self.y1 <= self.y2 else self.y2,
            self.x1 if self.x1 >= self.x2 else self.x2,
            self.y1 if self.y1 >= self.y2 else self.y2,
        )

    # ------------------------------------------------------------------
    # Scalar properties
    # ------------------------------------------------------------------
    def length2(self) -> float:
        dx = self.x2 - self.x1
        dy = self.y2 - self.y1
        return dx * dx + dy * dy

    def length(self) -> float:
        return self.length2() ** 0.5

    def is_degenerate(self) -> bool:
        """True when both endpoints coincide."""
        return self.x1 == self.x2 and self.y1 == self.y2

    # ------------------------------------------------------------------
    # Predicates and queries
    # ------------------------------------------------------------------
    def has_endpoint(self, p: Point) -> bool:
        x1, y1, x2, y2 = self
        px, py = p
        return (x1 == px and y1 == py) or (x2 == px and y2 == py)

    def other_endpoint(self, p: Point) -> Point:
        """The endpoint that is not ``p``.

        Raises ``ValueError`` when ``p`` is not an endpoint; for a
        degenerate segment both endpoints are ``p`` and ``p`` is returned.
        """
        if self.x1 == p.x and self.y1 == p.y:
            return self.end
        if self.x2 == p.x and self.y2 == p.y:
            return self.start
        raise ValueError(f"{p!r} is not an endpoint of {self!r}")

    def intersects_rect(self, rect: Rect) -> bool:
        """Whether any part of the segment meets the closed rectangle."""
        return segment_intersects_box(*self, *rect)

    def clipped(self, rect: Rect) -> Optional["Segment"]:
        """The q-edge of this segment within ``rect`` (or ``None``)."""
        clipped = clip_liang_barsky(self.start, self.end, rect)
        if clipped is None:
            return None
        a, b = clipped
        return Segment(a.x, a.y, b.x, b.y)

    def distance2_to_point(self, p: Point) -> float:
        return point_segment_distance2_xy(p[0], p[1], *self)
