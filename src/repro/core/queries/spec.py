"""The query plan object both traversal backends consume.

With more than one traversal backend (the scalar reference path and
the vectorized ``repro.core.vector`` backend) a caller of a per-query
function would have to know which implementation to dispatch to;
instead, a :class:`QuerySpec` names the query *plan* -- operation plus
arguments -- and :func:`execute_spec` hands it to a
:class:`~repro.core.interface.TraversalBackend`. There is no other
entry into query traversal.

Cache-key compatibility is part of the contract: ``QuerySpec.cache_key``
returns exactly the tuples the typed wire requests
(:mod:`repro.service.api`) have always used, so a result cached through
either path is found by the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.geometry import Point, Rect

#: Spatial predicates a window spec accepts (the wire's "clips" mode is
#: canonicalized to a window + clipping step before it reaches a spec).
WINDOW_MODES = ("intersects", "contains")

#: Every operation a spec can name.
SPEC_OPS = (
    "point",
    "incident",
    "other_endpoint",
    "nearest",
    "polygon",
    "window",
)

#: Default step bound for the polygon face walk.
POLYGON_MAX_STEPS = 100_000


@dataclass(frozen=True)
class QuerySpec:
    """One read query, as data: the operation and its arguments.

    Build through the factory classmethods; the positional fields are an
    implementation detail shared across ops (``x``/``y`` hold the query
    point or the window's min corner, ``x2``/``y2`` the max corner).
    """

    op: str
    x: float = 0.0
    y: float = 0.0
    x2: float = 0.0
    y2: float = 0.0
    mode: str = "intersects"
    k: int = 1
    seg_id: Optional[int] = None
    max_steps: int = POLYGON_MAX_STEPS

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, p: Point) -> "QuerySpec":
        """Query 1: ids of segments with an endpoint at ``p``."""
        return cls("point", x=p.x, y=p.y)

    @classmethod
    def incident(cls, p: Point) -> "QuerySpec":
        """Query 1 with geometry: ``(seg_id, Segment)`` pairs at ``p``."""
        return cls("incident", x=p.x, y=p.y)

    @classmethod
    def other_endpoint(cls, p: Point, seg_id: int) -> "QuerySpec":
        """Query 2: incidences at the other endpoint of ``seg_id``."""
        return cls("other_endpoint", x=p.x, y=p.y, seg_id=int(seg_id))

    @classmethod
    def nearest(cls, p: Point, k: int = 1) -> "QuerySpec":
        """Query 3: the ``k`` nearest segments to ``p``."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return cls("nearest", x=p.x, y=p.y, k=int(k))

    @classmethod
    def polygon(
        cls, p: Point, max_steps: int = POLYGON_MAX_STEPS
    ) -> "QuerySpec":
        """Query 4: the minimal enclosing polygon of ``p``."""
        return cls("polygon", x=p.x, y=p.y, max_steps=int(max_steps))

    @classmethod
    def window(cls, rect: Rect, mode: str = "intersects") -> "QuerySpec":
        """Query 5: segments meeting the closed window ``rect``."""
        if mode not in WINDOW_MODES:
            raise ValueError(
                f"mode must be 'intersects' or 'contains', got {mode!r}"
            )
        return cls(
            "window",
            x=rect.xmin,
            y=rect.ymin,
            x2=rect.xmax,
            y2=rect.ymax,
            mode=mode,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def to_point(self) -> Point:
        return Point(self.x, self.y)

    def to_rect(self) -> Rect:
        return Rect(self.x, self.y, self.x2, self.y2)

    def cache_key(self) -> Tuple:
        """The canonical result-cache key.

        For the ops the wire protocol serves ("point", "window",
        "nearest") these are byte-for-byte the tuples
        :mod:`repro.service.api` has always produced -- backends share
        one cache entry because they are counter- and result-identical.
        """
        if self.op == "point":
            return ("point", self.x, self.y)
        if self.op == "window":
            return ("window", self.x, self.y, self.x2, self.y2, self.mode)
        if self.op == "nearest":
            return ("nearest", self.x, self.y, self.k)
        if self.op == "incident":
            return ("incident", self.x, self.y)
        if self.op == "other_endpoint":
            return ("other_endpoint", self.x, self.y, self.seg_id)
        if self.op == "polygon":
            return ("polygon", self.x, self.y, self.max_steps)
        raise ValueError(f"unknown spec op {self.op!r}")


def execute_spec(index, spec: QuerySpec, backend=None):
    """Run ``spec`` against ``index`` through ``backend``.

    ``backend`` defaults to the scalar reference backend; pass the
    engine's resolved backend to pick the vectorized path. This is the
    single entry into query traversal.
    """
    if backend is None:
        from repro.core.backends import SCALAR_BACKEND  # avoid cycle

        backend = SCALAR_BACKEND
    return backend.run(index, spec)
