"""Observability: structured tracing, latency histograms, metrics export.

The paper's contribution is *measurement* -- disk accesses, segment
comparisons, bounding-box tests per structure -- and the service layer
already aggregates those per session. This package answers the question
the aggregates cannot: **what is slow, and why, per query**.

* :mod:`repro.obs.trace` -- :class:`Tracer`: per-query span trees
  (``traverse`` / ``apply`` -> ``commit``, each carrying the counter
  deltas it was charged) captured into a bounded ring buffer. It has one
  mode: armed with a head-sampling rate and an optional slow threshold,
  every request gets a root with trace ids and the ring keeps the
  sampled, the errored and the slow; the slow-query log is a view over
  that ring. Disabled tracing is a single attribute check on the hot
  path -- no allocation, no thread-local lookup.
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry`: process-wide
  named counters and fixed-bucket log-scale latency histograms.
* :mod:`repro.obs.prom` -- Prometheus text exposition rendering and a
  small parser used by the tests and the CI smoke job to prove the
  output is valid.
* :mod:`repro.obs.dtrace` -- distributed trace context (trace id, span
  id, sampled flag) carried across process boundaries as the ``"tc"``
  field on both wire protocols, plus the thread-local server <-> engine
  handoff slots.
* :mod:`repro.obs.clock` -- the per-process monotonic clock anchor all
  span timestamps use, and the wall-clock offset exchanged at connect
  time so the router can order cross-process spans despite skew.
* :mod:`repro.obs.profile` -- :class:`SamplingProfiler`: a stdlib-only
  thread-stack sampler that attributes samples to the op executing on
  each thread and exports collapsed (flamegraph) stacks; the router
  merges per-shard profiles into one.

Wire-up: :meth:`repro.service.engine.QueryEngine.execute` opens one
trace and one histogram observation per request (every op -- point,
window, nearest, batch, insert, delete, checkpoint, stats, check --
identically) and sets the paper's counters on its spans; nothing below
the engine knows the tracer exists. The server exposes ``{"op":
"trace"}`` and ``{"op": "metrics"}``; the CLI adds ``python -m repro stats --format
prom|json``.
"""

from repro.obs.buildinfo import git_sha, publish_build_info
from repro.obs.clock import clock_info, now_us, wall_now_us
from repro.obs.dtrace import TraceContext
from repro.obs.explain import ExplainProfile, format_explain, merge_attributed
from repro.obs.health import compute_health, publish_health
from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.profile import PROFILER, SamplingProfiler, collapsed_text, merge_profiles
from repro.obs.prom import parse_prom_text, render_prom
from repro.obs.trace import TRACER, Tracer

__all__ = [
    "Counter",
    "ExplainProfile",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "PROFILER",
    "SamplingProfiler",
    "TRACER",
    "TraceContext",
    "Tracer",
    "clock_info",
    "collapsed_text",
    "merge_profiles",
    "now_us",
    "wall_now_us",
    "compute_health",
    "format_explain",
    "get_registry",
    "git_sha",
    "merge_attributed",
    "parse_prom_text",
    "publish_build_info",
    "publish_health",
    "render_prom",
]
