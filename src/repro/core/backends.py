"""The scalar traversal: the one path every served query takes.

:class:`ScalarBackend` is the paper's per-entry loop, and the one switch
from a spec's op to a search. :mod:`repro.core.vector` subclasses it as a
library kernel, overriding the window search with numpy struct-of-arrays
passes; the benchmarks time the two side by side.
:func:`resolve_backend` picks one by name and degrades gracefully --
asking for ``"vector"`` without numpy installed yields a scalar backend,
which callers tell apart by its ``name``.

The contract the kernel honours: for any spec, ``run`` returns the
**same result** as the scalar path and charges the **same paper
counters** (disk accesses, bounding-box comparisons, segment
comparisons) through the index's storage context. Its ``run_batch`` may
reorder *page* traffic across the batch -- that is the point of a fused
descent -- but per-query results, ``bbox_comps`` and ``segment_comps``
still match the scalar path to the unit, and total disk accesses never
exceed it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.interface import SpatialIndex
from repro.core.queries.nearest import scalar_nearest_k
from repro.core.queries.point import other_endpoint_via, scalar_incident_segments
from repro.core.queries.polygon import walk_enclosing_polygon
from repro.core.queries.window import scalar_window_query
from repro.geometry import Rect

if TYPE_CHECKING:  # spec.py imports this module
    from repro.core.queries.spec import QuerySpec

#: Names :func:`resolve_backend` accepts.
BACKEND_NAMES = ("scalar", "vector")


class ScalarBackend:
    """The reference backend: the paper's scalar per-entry traversal."""

    name = "scalar"

    def run(self, index: SpatialIndex, spec: QuerySpec):
        op = spec.op
        if op == "window":
            return self._window(index, spec.to_rect(), spec.mode)
        if op == "point":
            return [sid for sid, _ in scalar_incident_segments(index, spec.to_point())]
        if op == "incident":
            return scalar_incident_segments(index, spec.to_point())
        if op == "nearest":
            return scalar_nearest_k(index, spec.to_point(), spec.k)
        if op == "other_endpoint":
            return other_endpoint_via(index, spec.to_point(), spec.seg_id)
        if op == "polygon":
            return walk_enclosing_polygon(index, spec.to_point(), spec.max_steps)
        raise ValueError(f"unknown spec op {spec.op!r}")

    # The traversal the vector kernel overrides.
    def _window(self, index: SpatialIndex, window: Rect, mode: str) -> List[int]:
        return scalar_window_query(index, window, mode)


#: Module-level reference backend for spec execution. Stateless, so
#: sharing one instance across indexes and threads is safe.
SCALAR_BACKEND = ScalarBackend()


def resolve_backend(backend=None) -> ScalarBackend:
    """A backend by name: ``None``/``"scalar"`` (the reference path) or
    ``"vector"`` (numpy struct-of-arrays; a scalar backend when numpy is
    unavailable). Each call returns a fresh instance -- a vector
    backend's node mirrors belong to one caller.
    """
    if backend is None or backend == "scalar":
        return ScalarBackend()
    if backend == "vector":
        from repro.core import vector

        if vector.HAVE_NUMPY:
            return vector.VectorBackend()
        return ScalarBackend()
    raise ValueError(
        f"unknown traversal backend {backend!r} (expected one of {BACKEND_NAMES})"
    )
