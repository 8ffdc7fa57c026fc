"""Traversal backends: the scalar reference path and the resolver.

The :class:`~repro.core.interface.TraversalBackend` seam lets the engine
swap *how* queries traverse an index without changing *what* they
measure. :class:`ScalarBackend` is the paper's per-entry loop, and the
one switch from a spec's op to a search; :mod:`repro.core.vector`
subclasses it, overriding the window and incidence searches with numpy
struct-of-arrays passes. :func:`resolve_backend` picks
one by name and degrades gracefully -- asking for ``"vector"`` without
numpy installed yields a scalar backend that reports the fallback in
``describe()`` (surfaced by the engine's ``stats`` op).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.interface import SpatialIndex, TraversalBackend
from repro.core.queries.nearest import scalar_nearest_k
from repro.core.queries.point import other_endpoint_via, scalar_incident_segments
from repro.core.queries.polygon import walk_enclosing_polygon
from repro.core.queries.spec import QuerySpec
from repro.core.queries.window import scalar_window_query
from repro.geometry import Point, Rect

#: Names :func:`resolve_backend` accepts.
BACKEND_NAMES = ("scalar", "vector")


class ScalarBackend(TraversalBackend):
    """The reference backend: the paper's scalar per-entry traversal."""

    name = "scalar"
    supports_batch = False

    def __init__(self, requested: Optional[str] = None) -> None:
        #: The backend the caller asked for, when this one is a fallback.
        self.requested = requested if requested is not None else self.name

    def run(self, index: SpatialIndex, spec: QuerySpec):
        op = spec.op
        if op == "window":
            return self._window(index, spec.to_rect(), spec.mode)
        if op == "point":
            return [sid for sid, _ in self._incident(index, spec.to_point())]
        if op == "incident":
            return self._incident(index, spec.to_point())
        if op == "nearest":
            # Best-first search is dominated by heap-ordered node
            # expansions and per-candidate distance fetches that must
            # stay charge-identical: every backend shares this one.
            return scalar_nearest_k(index, spec.to_point(), spec.k)
        if op == "other_endpoint":
            return other_endpoint_via(index, spec.to_point(), spec.seg_id, self)
        if op == "polygon":
            return walk_enclosing_polygon(
                index, spec.to_point(), spec.max_steps, self
            )
        raise ValueError(f"unknown spec op {spec.op!r}")

    # The two traversals an accelerating backend overrides; queries 2
    # and 4 are composed from them, so they follow.
    def _window(self, index: SpatialIndex, window: Rect, mode: str) -> List[int]:
        return scalar_window_query(index, window, mode)

    def _incident(self, index: SpatialIndex, p: Point):
        return scalar_incident_segments(index, p)

    def describe(self) -> dict:
        out = {"name": self.name, "requested": self.requested}
        if self.requested != self.name:
            out["fallback"] = True
        return out


#: Module-level reference backend for spec execution outside an engine
#: (the harness, the crash tester, the legacy shims). Stateless, so
#: sharing one instance across indexes is safe.
SCALAR_BACKEND = ScalarBackend()


def resolve_backend(backend=None) -> TraversalBackend:
    """Resolve an engine's ``backend=`` argument to an instance.

    Accepts ``None``/``"scalar"`` (the reference path), ``"vector"``
    (numpy struct-of-arrays; falls back to scalar *with a stats
    indicator* when numpy is unavailable), or an existing
    :class:`~repro.core.interface.TraversalBackend` instance, which is
    returned as-is. Each call returns a fresh instance for the stateful
    kinds -- a vector backend's node mirrors belong to one engine.
    """
    if backend is None or backend == "scalar":
        return ScalarBackend()
    if isinstance(backend, TraversalBackend):
        return backend
    if backend == "vector":
        from repro.core import vector

        if vector.HAVE_NUMPY:
            return vector.VectorBackend()
        return ScalarBackend(requested="vector")
    raise ValueError(
        f"unknown traversal backend {backend!r} (expected one of "
        f"{BACKEND_NAMES} or a TraversalBackend instance)"
    )
