"""The scalar traversal: the one path every query takes.

:class:`ScalarBackend` is the paper's per-entry loop, and the one switch
from a spec's op to a search. Every op charges the paper's counters
(disk accesses, bounding-box comparisons, segment comparisons) through
the index's storage context as it goes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.interface import SpatialIndex
from repro.core.queries.nearest import scalar_nearest_k
from repro.core.queries.point import other_endpoint_via, scalar_incident_segments
from repro.core.queries.polygon import walk_enclosing_polygon
from repro.core.queries.window import scalar_window_query

if TYPE_CHECKING:  # spec.py imports this module
    from repro.core.queries.spec import QuerySpec


class ScalarBackend:
    """The paper's scalar per-entry traversal."""

    name = "scalar"

    def run(self, index: SpatialIndex, spec: QuerySpec):
        op = spec.op
        if op == "window":
            return scalar_window_query(index, spec.to_rect(), spec.mode)
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


#: Module-level backend for spec execution. Stateless, so sharing one
#: instance across indexes and threads is safe.
SCALAR_BACKEND = ScalarBackend()


class _VectorAlias(ScalarBackend):
    """The scalar traversal under the deleted array kernel's name and
    call shape, for the registered benchmark's ``vector_metrics`` only:
    its four ``vector_*`` rows now time this loop against the
    scalar loop. It goes when ``BENCHMARK.json`` drops those rows
    (ROADMAP item 3)."""

    name = "vector"

    def run_batch(self, index: SpatialIndex, specs: List[QuerySpec]) -> list:
        return [self.run(index, spec) for spec in specs]

    def invalidate(self) -> None:
        """Nothing to drop: the scalar traversal keeps no mirrors."""


_VECTOR_ALIAS = _VectorAlias()


def resolve_backend(backend=None) -> ScalarBackend:
    """The scalar backend, for ``None`` or ``"scalar"``; for
    ``"vector"``, the same traversal under that name (see
    :class:`_VectorAlias`)."""
    if backend in (None, "scalar"):
        return SCALAR_BACKEND
    if backend == "vector":
        return _VECTOR_ALIAS
    raise ValueError(
        f"unknown traversal backend {backend!r} (expected 'scalar')"
    )
