"""Axis-aligned rectangle (minimum bounding rectangle) value type."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from repro.geometry.point import Point


class Rect(NamedTuple):
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate rectangles (zero width and/or height) are legal: the MBR of
    a horizontal, vertical, or point-like segment is degenerate, and the
    R-tree variants store such MBRs routinely.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Rect":
        """The MBR of two points (e.g. a segment's endpoints)."""
        return cls(
            a.x if a.x <= b.x else b.x,
            a.y if a.y <= b.y else b.y,
            a.x if a.x >= b.x else b.x,
            a.y if a.y >= b.y else b.y,
        )

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """The MBR of a non-empty collection of rectangles."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_of() requires at least one rectangle") from None
        xmin, ymin, xmax, ymax = first
        for r in it:
            if r.xmin < xmin:
                xmin = r.xmin
            if r.ymin < ymin:
                ymin = r.ymin
            if r.xmax > xmax:
                xmax = r.xmax
            if r.ymax > ymax:
                ymax = r.ymax
        return cls(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------
    # Scalar properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def is_valid(self) -> bool:
        """True when min corners do not exceed max corners."""
        return self.xmin <= self.xmax and self.ymin <= self.ymax

    def area(self) -> float:
        """Area; zero for degenerate rectangles."""
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def perimeter(self) -> float:
        """Perimeter (the R*-tree split criterion calls this *margin*)."""
        return 2.0 * ((self.xmax - self.xmin) + (self.ymax - self.ymin))

    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """Closed containment: boundary points are contained."""
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and self.xmax >= other.xmax
            and self.ymax >= other.ymax
        )

    def intersects(self, other: "Rect") -> bool:
        """Closed intersection: touching edges/corners count."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def merged(self, other: "Rect") -> "Rect":
        """The MBR of this rectangle and ``other``."""
        return Rect(
            self.xmin if self.xmin <= other.xmin else other.xmin,
            self.ymin if self.ymin <= other.ymin else other.ymin,
            self.xmax if self.xmax >= other.xmax else other.xmax,
            self.ymax if self.ymax >= other.ymax else other.ymax,
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlap rectangle, or ``None`` when disjoint."""
        xmin = self.xmin if self.xmin >= other.xmin else other.xmin
        ymin = self.ymin if self.ymin >= other.ymin else other.ymin
        xmax = self.xmax if self.xmax <= other.xmax else other.xmax
        ymax = self.ymax if self.ymax <= other.ymax else other.ymax
        if xmin > xmax or ymin > ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    def overlap_area(self, other: "Rect") -> float:
        """Area of the overlap with ``other`` (zero when disjoint)."""
        w = (self.xmax if self.xmax <= other.xmax else other.xmax) - (
            self.xmin if self.xmin >= other.xmin else other.xmin
        )
        if w <= 0:
            return 0.0
        h = (self.ymax if self.ymax <= other.ymax else other.ymax) - (
            self.ymin if self.ymin >= other.ymin else other.ymin
        )
        if h <= 0:
            return 0.0
        return w * h

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for this rectangle to also cover ``other``.

        This is the classic Guttman ``ChooseLeaf`` criterion.
        """
        merged = self.merged(other)
        return merged.area() - self.area()
