"""Batched query execution ordered by space-filling-curve key.

A buffer pool rewards locality: two queries that touch the same leaf
pages cost one fault if they run back to back, two if something evicts
the pages in between. Arrival order has no such structure, so the batch
executor reorders a group of requests by the Morton (Z-order) key of each
query's centroid before executing -- the same clustering argument behind
the linear quadtree's B-tree layout and Kamel & Faloutsos' Hilbert
packing. Results are always returned in arrival order; only the
execution schedule changes.

The effect is measured, not assumed: :meth:`BatchExecutor.compare_orders`
runs the same batch in arrival order and in Morton order from an equally
cold pool and reports the disk accesses of each (the service tests
assert Morton <= arrival).

Batches may also carry mutations (``insert``/``delete``). A mutation is
a *barrier*: it executes at exactly its arrival position, and only the
reads between two consecutive barriers are Morton-sorted among
themselves. That preserves both read-after-write semantics (a query
after an insert sees it; one before does not) and -- in durable mode --
the WAL's LSN order, which must match arrival order.

Each member is parsed (:func:`repro.service.api.parse_batch_item`) into
the request a standalone op would be and dispatched through
:meth:`QueryEngine.execute`, so batch members are validated, traced, and
histogrammed exactly like standalone requests -- under an enabled
tracer, a batch trace shows one child span per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pmr.locational import morton_key
from repro.core.queries.spec import QuerySpec
from repro.service.api import OPS, parse_batch_item
from repro.service.engine import QueryEngine, QuerySession
from repro.storage.counters import MetricsSnapshot

#: A batch request is a dict like the server protocol's:
#: ``{"op": "point", "x": .., "y": ..}``,
#: ``{"op": "window", "x1": .., "y1": .., "x2": .., "y2": ..}``,
#: ``{"op": "nearest", "x": .., "y": .., "k": ..}``.
Request = Dict[str, Any]

_ORDERS = ("arrival", "morton")


def _is_mutation(request: Any) -> bool:
    return OPS[request.op].writes


def _centroid(spec: QuerySpec) -> Tuple[float, float]:
    """Scheduling key coordinate of a read."""
    if spec.op == "window":
        return spec.to_rect().center()
    return spec.to_point()


@dataclass
class BatchResult:
    """Results (in arrival order) plus the cost of the whole batch."""

    results: List[Any]
    order: str
    metrics: MetricsSnapshot

    @property
    def disk_accesses(self) -> int:
        return self.metrics.disk_accesses


class BatchExecutor:
    """Execute grouped requests through an engine, sorted for locality."""

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    def _schedule(self, requests: List[Any], order: str) -> List[int]:
        """Execution order: mutations are barriers pinned at their arrival
        positions; only each run of reads between barriers is sorted."""
        indices = list(range(len(requests)))
        if order != "morton":
            return indices
        schedule: List[int] = []
        run: List[int] = []

        def flush_run() -> None:
            run.sort(key=lambda i: morton_key(*_centroid(requests[i])))
            schedule.extend(run)
            run.clear()

        for idx in indices:
            if _is_mutation(requests[idx]):
                flush_run()
                schedule.append(idx)
            else:
                run.append(idx)
        flush_run()
        return schedule

    def execute(
        self,
        requests: List[Request],
        session: Optional[QuerySession] = None,
        order: str = "morton",
        use_cache: bool = True,
    ) -> BatchResult:
        """Run a batch, returning results in arrival order.

        ``order`` is ``"morton"`` (sorted by centroid Z-order key) or
        ``"arrival"``. The result carries the metric deltas the whole
        batch charged to ``session``.
        """
        if order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
        if session is None:
            session = self.engine.session()
        typed = [parse_batch_item(raw) for raw in requests]
        if not use_cache:
            for request in typed:
                if not _is_mutation(request):
                    request.use_cache = False
        results: List[Any] = [None] * len(typed)
        before = session.counters.snapshot()
        for idx in self._schedule(typed, order):
            results[idx] = self.engine.execute(typed[idx], session=session)
        return BatchResult(
            results=results,
            order=order,
            metrics=session.counters.since(before),
        )

    def compare_orders(
        self, requests: List[Request], session: Optional[QuerySession] = None
    ) -> Dict[str, BatchResult]:
        """Run the batch in both orders from equally cold pools.

        The result cache is bypassed and the buffer pool is cleared
        before each run, so the two disk-access counts differ only by
        execution order. Returns ``{"arrival": ..., "morton": ...}``.
        """
        out: Dict[str, BatchResult] = {}
        for order in _ORDERS:
            self.engine.cold_start()
            out[order] = self.execute(
                requests, session=session, order=order, use_cache=False
            )
        return out
