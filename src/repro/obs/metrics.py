"""Process-wide named counters and latency histograms.

The per-session :class:`~repro.storage.counters.MetricsCounters` answer
"how much storage work did this client cause"; this module answers "how
is the *service* doing" -- request rates and latency distributions. (The
individual queries slow enough to need looking at are the tracer's:
:meth:`repro.obs.trace.Tracer.slow_queries`.)

Histograms use **fixed log-scale buckets**: powers of two from 1 us to
~8.4 s (25 buckets plus overflow). Fixed buckets make observation O(1)
with no allocation (an index increment into a pre-sized list), make
concurrent merging trivial, and render directly as a Prometheus
cumulative histogram. The price is ~2x bucket-width error on quantile
estimates, which is exactly the trade Prometheus itself makes.

Everything here is thread-safe; the registry is process-wide via
:func:`get_registry` (the same singleton pattern as
:data:`repro.obs.trace.TRACER`), so the engine, server, CLI, and tests
all read one store of truth. Tests that need isolation construct their
own :class:`MetricsRegistry` or call :meth:`MetricsRegistry.reset`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple

from repro.sanitize import make_lock

#: Histogram bucket upper bounds in seconds: 2**i microseconds.
BUCKET_BOUNDS: Tuple[float, ...] = tuple((1 << i) * 1e-6 for i in range(25))

#: Index of the +Inf (overflow) slot in a histogram's ``counts`` list.
_OVERFLOW_SLOT = len(BUCKET_BOUNDS)


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        # Leaf lock on the request hot path: never held while acquiring
        # another lock, so it stays a raw threading.Lock instead of a
        # sanitizer-tracked one (no ordering edges to learn from it).
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    def advance_to(self, value: float) -> None:
        """Raise the counter to ``value`` if that is an increase.

        For counters mirroring a tally kept elsewhere (e.g. the result
        cache's own hit/miss counts): synced at export time instead of
        paying a second lock on every request. Monotonicity is enforced
        here, so a stale sync can never move the counter backwards.
        """
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A named value that can move in either direction.

    Used for the structural health telemetry (occupancy, overlap, depth
    distributions) and the ``repro_build_info`` info-gauge: quantities
    that are *states*, not accumulations, so a Counter's monotonicity
    would be wrong for them.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()  # leaf lock, never nested (see Counter)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class LatencyHistogram:
    """Fixed log-2 buckets over seconds, Prometheus-renderable.

    ``counts[i]`` holds observations with ``value <= BUCKET_BOUNDS[i]``
    (non-cumulative internally; rendering accumulates). The final slot
    ``counts[-1]`` is the overflow (+Inf) bucket.
    """

    __slots__ = ("name", "labels", "counts", "total", "sum_seconds", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.total = 0
        self.sum_seconds = 0.0
        self._lock = threading.Lock()  # leaf lock, never nested (see Counter)

    def observe(self, seconds: float) -> None:
        idx = self._bucket_index(seconds)
        with self._lock:
            self.counts[idx] += 1
            self.total += 1
            self.sum_seconds += seconds

    def observe_and_count(self, seconds: float, counter: "Counter") -> None:
        """Observe and bump ``counter`` in a single critical section.

        The hot-path fusion for the engine's (latency histogram, ok
        counter) pair: one lock cycle instead of two per request. Safe
        only while every writer of ``counter`` goes through this method
        -- the engine's per-op ok counters do.
        """
        # _bucket_index, inlined: this runs on every request.
        if seconds <= 1e-6:
            idx = 0
        else:
            micros = seconds * 1e6
            whole = int(micros)
            if whole < micros:
                whole += 1
            idx = (whole - 1).bit_length()
            if idx > _OVERFLOW_SLOT:
                idx = _OVERFLOW_SLOT
        with self._lock:
            self.counts[idx] += 1
            self.total += 1
            self.sum_seconds += seconds
            counter._value += 1

    @staticmethod
    def _bucket_index(seconds: float) -> int:
        # Loop-free: the bucket is ceil(log2(micros)), via int.bit_length.
        # Observation is on every request's path, so this must stay cheap.
        if seconds <= 1e-6:
            return 0
        micros = seconds * 1e6
        whole = int(micros)
        if whole < micros:
            whole += 1  # ceil: 2.5us belongs in the (2, 4] bucket
        idx = (whole - 1).bit_length()
        if idx >= len(BUCKET_BOUNDS):
            return len(BUCKET_BOUNDS)  # overflow slot
        return idx

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile (0..1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            total = self.total
            counts = list(self.counts)
        if total == 0:
            return 0.0
        rank = max(1, int(q * total + 0.999999))
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen >= rank:
                if i < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[i]
                return float("inf")
        return float("inf")

    def raw(self) -> Tuple[List[int], int, float]:
        """A consistent (bucket counts, total, sum) triple for rendering."""
        with self._lock:
            return list(self.counts), self.total, self.sum_seconds

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "count": self.total,
                "sum_seconds": self.sum_seconds,
                "buckets": {
                    f"{bound:.6f}": count
                    for bound, count in zip(BUCKET_BOUNDS, self.counts)
                },
                "overflow": self.counts[-1],
            }


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """All named counters and histograms of one process, in one place.

    Metric names follow Prometheus conventions (``repro_queries_total``,
    ``repro_op_latency_seconds``); labels are passed as keyword
    arguments and become Prometheus label sets. Fetching is
    get-or-create, so call sites never pre-register.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Counter] = {}
        self._gauges: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Gauge] = {}
        self._histograms: Dict[
            Tuple[str, Tuple[Tuple[str, str], ...]], LatencyHistogram
        ] = {}
        self._lock = make_lock("obs.metrics_registry")

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter(name, key[1]))
        return counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge(name, key[1]))
        return gauge

    def histogram(self, name: str, **labels: str) -> LatencyHistogram:
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            with self._lock:
                hist = self._histograms.setdefault(
                    key, LatencyHistogram(name, key[1])
                )
        return hist

    def counters(self) -> List[Counter]:
        with self._lock:
            return list(self._counters.values())

    def gauges(self) -> List[Gauge]:
        with self._lock:
            return list(self._gauges.values())

    def histograms(self) -> List[LatencyHistogram]:
        with self._lock:
            return list(self._histograms.values())

    def reset(self) -> None:
        """Drop every metric (test isolation; never called in service)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def render_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for counter in self.counters():
            out["counters"].append(
                {
                    "name": counter.name,
                    "labels": dict(counter.labels),
                    "value": counter.value,
                }
            )
        for gauge in self.gauges():
            out["gauges"].append(
                {
                    "name": gauge.name,
                    "labels": dict(gauge.labels),
                    "value": gauge.value,
                }
            )
        for hist in self.histograms():
            entry = {"name": hist.name, "labels": dict(hist.labels)}
            entry.update(hist.snapshot())
            out["histograms"].append(entry)
        return out

    def render_prom(self) -> str:
        from repro.obs.prom import render_prom

        return render_prom(self)


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (engine, server, CLI all share it)."""
    return _REGISTRY
