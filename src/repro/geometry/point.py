"""Two-dimensional point value type."""

from __future__ import annotations

from typing import NamedTuple


class Point(NamedTuple):
    """A point on the map grid.

    Points are plain tuples, so they hash, compare, and unpack cheaply;
    the spatial indexes move millions of them during a build.
    """

    x: float
    y: float
