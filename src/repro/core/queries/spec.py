"""The read request: one query, as data, from the wire to the traversal.

A :class:`QuerySpec` names a query *plan* -- operation plus arguments.
It is what :func:`repro.service.api.parse_request` returns for a wire
read, what :meth:`repro.service.engine.QueryEngine.execute` latches,
attributes and caches, and what
:class:`~repro.core.backends.ScalarBackend` runs; :func:`execute_spec`
runs one over a bare index. There is no other entry into query
traversal, so what makes two spellings of a
query the same query -- sorted window corners, ``k >= 1``, the window
modes, the cache key -- is decided in this module and nowhere else.
"""

from __future__ import annotations

from math import isfinite
from operator import attrgetter
from typing import Any, Dict, Optional, Tuple

# A module object, not a name: repro.core.backends imports the query
# modules, so it may still be loading here; execute_spec reads it late.
from repro.core import backends
from repro.core.interface import WORLD_SIZE
from repro.geometry import Point, Rect

#: Spatial predicates a window spec accepts.
WINDOW_MODES = ("intersects", "contains")

#: Default step bound for the polygon face walk.
POLYGON_MAX_STEPS = 100_000

#: Every operation a spec can name, with the arguments that identify one
#: query of it -- the cache key, in order -- under the names the wire
#: gives them (trace attributes, the slow log and EXPLAIN's ``args``
#: print these).
_ARGS: Dict[str, Tuple[str, ...]] = {
    "point": ("x", "y"),
    "incident": ("x", "y"),
    "other_endpoint": ("x", "y", "seg_id"),
    "nearest": ("x", "y", "k"),
    "polygon": ("x", "y", "max_steps"),
    "window": ("x1", "y1", "x2", "y2", "mode"),
}

#: The wire's names for a window's min corner, which a spec keeps in the
#: fields every other op uses for its query point.
_FIELD_OF = {"x1": "x", "y1": "y"}

_KEY = {
    op: attrgetter("op", *(_FIELD_OF.get(name, name) for name in names))
    for op, names in _ARGS.items()
}


class QuerySpec:
    """One read query, as data: the operation and its arguments.

    Build through the factory classmethods; the positional fields are an
    implementation detail shared across ops (``x``/``y`` hold the query
    point or the window's min corner, ``x2``/``y2`` the max corner).
    ``use_cache`` is the one field that is not part of the plan: a spec
    with it false is run without consulting or filling the engine's
    result cache (the wire's ``"use_cache": false``).

    One is built per served request, hence slots and plain stores; specs
    are immutable by convention -- shared across threads, never assigned
    to once handed to an engine.
    """

    __slots__ = (
        "op", "x", "y", "x2", "y2", "mode", "k", "seg_id", "max_steps", "use_cache"
    )

    def __init__(
        self,
        op: str,
        x: float = 0.0,
        y: float = 0.0,
        x2: float = 0.0,
        y2: float = 0.0,
        mode: str = "intersects",
        k: int = 1,
        seg_id: Optional[int] = None,
        max_steps: int = POLYGON_MAX_STEPS,
    ) -> None:
        self.op = op
        self.x = x
        self.y = y
        self.x2 = x2
        self.y2 = y2
        self.mode = mode
        self.k = k
        self.seg_id = seg_id
        self.max_steps = max_steps
        self.use_cache = True

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.describe().items())
        return f"QuerySpec.{self.op}({args})"

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, p: Point) -> "QuerySpec":
        """Query 1: ids of segments with an endpoint at ``p``."""
        return cls("point", *p)

    @classmethod
    def incident(cls, p: Point) -> "QuerySpec":
        """Query 1 with geometry: ``(seg_id, Segment)`` pairs at ``p``."""
        return cls("incident", *p)

    @classmethod
    def other_endpoint(cls, p: Point, seg_id: int) -> "QuerySpec":
        """Query 2: incidences at the other endpoint of ``seg_id``."""
        return cls("other_endpoint", *p, seg_id=int(seg_id))

    @classmethod
    def nearest(cls, p: Point, k: int = 1) -> "QuerySpec":
        """Query 3: the ``k`` nearest segments to ``p``.

        ``p`` must lie near enough to the world ``[0, WORLD_SIZE]^2``
        that its squared distance to the far corner is a finite float:
        from farther away every distance in the answer would be ``inf``,
        which JSON cannot carry.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        x, y = p
        dx = max(abs(x), abs(x - WORLD_SIZE))
        dy = max(abs(y), abs(y - WORLD_SIZE))
        if not isfinite(dx * dx + dy * dy):
            raise ValueError(
                f"point ({x}, {y}) is too far from the world for a finite distance"
            )
        return cls("nearest", x, y, k=int(k))

    @classmethod
    def polygon(
        cls, p: Point, max_steps: int = POLYGON_MAX_STEPS
    ) -> "QuerySpec":
        """Query 4: the minimal enclosing polygon of ``p``."""
        return cls("polygon", *p, max_steps=int(max_steps))

    @classmethod
    def window(cls, rect: Rect, mode: str = "intersects") -> "QuerySpec":
        """Query 5: segments meeting the closed window ``rect``, whichever
        two opposite corners it was given by."""
        if mode not in WINDOW_MODES:
            raise ValueError(f"mode must be one of {WINDOW_MODES}, got {mode!r}")
        x1, y1, x2, y2 = rect
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        return cls("window", x1, y1, x2, y2, mode)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def to_point(self) -> Point:
        return Point(self.x, self.y)

    def to_rect(self) -> Rect:
        return Rect(self.x, self.y, self.x2, self.y2)

    def cache_key(self) -> Tuple:
        """The canonical result-cache key: the op, then its arguments."""
        return _KEY[self.op](self)

    def describe(self) -> Dict[str, Any]:
        """The arguments under the wire's names."""
        return dict(zip(_ARGS[self.op], _KEY[self.op](self)[1:]))


def execute_spec(index, spec: QuerySpec):
    """Run ``spec`` against ``index``: the single entry into query
    traversal, the scalar path every engine serves."""
    return backends.SCALAR_BACKEND.run(index, spec)
