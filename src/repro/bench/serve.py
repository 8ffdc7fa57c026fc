"""The serving-path perf baseline: threaded vs async under load.

``python -m repro bench --serve --json BENCH_serve.json`` runs the same
seeded workload through both front ends over one built index:

* **threaded** -- the closed-loop ``bench-serve`` shape: K connections,
  one in-flight request each (the threaded
  :class:`~repro.service.server.MapServer` refuses the v2 upgrade, so
  the load generator drives it over v1 lines);
* **async** -- the saturation shape: ``async_multiplier`` x K pipelined
  v2 connections against the :class:`~repro.aio.server.AsyncMapServer`
  (the acceptance floor for the async front end is sustaining at least
  5x the threaded connection count), plus a durable sub-run with a
  mutation share that measures group commit: fsyncs-per-mutation, with
  1.0 being the threaded server's per-request floor.

Only deterministic points gate: request error counts (zero on a healthy
serve path) and counter consistency. Latency percentiles and the
group-commit ratio are recorded and *warned* on drift, never gated -- a
CI runner is not a benchmark rig, and fsync batching depends on disk
timing.
"""

from __future__ import annotations

import tempfile
from typing import Dict, List, Optional

from repro.bench.runner import BENCH_SCHEMA_VERSION
from repro.obs.buildinfo import git_sha
from repro.service.loadgen import bench_serve

#: The serving record's ``kind`` discriminator.
SERVE_BENCH_KIND = "repro-serve-bench"

#: Everything that determines the deterministic gate points.
SERVE_DEFAULT_PARAMS: Dict[str, object] = {
    "county": "charles",
    "scale": 0.02,
    "structure": "R*",
    "threads": 8,
    "requests": 400,
    "pipeline": 8,
    "async_multiplier": 5,
    "mutate_frac": 0.2,
    "seed": 0,
}

#: The two serving modes every record carries.
SERVE_MODES = ("threaded", "async")


def run_serve_bench(
    params: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Produce one ``repro-serve-bench`` record (see the module docstring)."""
    p = dict(SERVE_DEFAULT_PARAMS)
    if params:
        p.update(params)
    threads = int(p["threads"])
    requests = int(p["requests"])
    pipeline = int(p["pipeline"])
    async_connections = threads * int(p["async_multiplier"])

    threaded = bench_serve(
        county=str(p["county"]),
        scale=float(p["scale"]),
        structure=str(p["structure"]),
        threads=threads,
        requests=requests,
        seed=int(p["seed"]),
    )
    # The tracing tax, measured: the same threaded workload with
    # distributed sampling armed at 1.0 (every request records, stitches,
    # and ships its span tree). Recorded and warned on drift, not gated.
    from repro.obs.trace import TRACER

    TRACER.arm(1.0)
    try:
        sampled = bench_serve(
            county=str(p["county"]),
            scale=float(p["scale"]),
            structure=str(p["structure"]),
            threads=threads,
            requests=requests,
            seed=int(p["seed"]),
        )
    finally:
        TRACER.disarm()
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        awaited = bench_serve(
            county=str(p["county"]),
            scale=float(p["scale"]),
            structure=str(p["structure"]),
            threads=async_connections,
            requests=requests,
            seed=int(p["seed"]),
            use_async=True,
            pipeline=pipeline,
            wal_dir=tmp + "/wal",
            mutate_frac=float(p["mutate_frac"]),
        )
    lat_t, lat_a = threaded.latency_ms, awaited.latency_ms
    p50_off = lat_t["p50"]
    p50_on = sampled.latency_ms["p50"]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": SERVE_BENCH_KIND,
        "git_sha": git_sha(),
        "params": p,
        "trace_overhead": {
            "p50_off_ms": p50_off,
            "p50_sampled_ms": p50_on,
            "delta_pct": round(
                (p50_on - p50_off) / p50_off * 100.0, 1
            )
            if p50_off > 0
            else 0.0,
        },
        "modes": {
            "threaded": {
                "connections": threaded.threads,
                "requests": threaded.requests,
                "errors": threaded.errors,
                "counters_consistent": threaded.counters_consistent,
                "throughput_qps": threaded.throughput_qps,
                "wall": {
                    "p50_ms": lat_t["p50"],
                    "p99_ms": lat_t["p99"],
                    "max_ms": lat_t["max"],
                },
            },
            "async": {
                "connections": awaited.threads,
                "pipeline": awaited.pipeline,
                "requests": awaited.requests,
                "errors": awaited.errors,
                "overloaded": awaited.overloaded,
                "counters_consistent": awaited.counters_consistent,
                "throughput_qps": awaited.throughput_qps,
                "wall": {
                    "p50_ms": lat_a["p50"],
                    "p99_ms": lat_a["p99"],
                    "max_ms": lat_a["max"],
                },
                "group_commit": awaited.group_commit,
            },
        },
    }


def validate_serve_record(record: object) -> List[str]:
    """Schema problems in a serving record (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("kind") != SERVE_BENCH_KIND:
        problems.append(
            f"kind must be {SERVE_BENCH_KIND!r}, got {record.get('kind')!r}"
        )
    if record.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, "
            f"got {record.get('schema_version')!r}"
        )
    if not isinstance(record.get("git_sha"), str):
        problems.append("git_sha must be a string")
    params = record.get("params")
    if not isinstance(params, dict):
        problems.append("params must be an object")
    else:
        missing = sorted(set(SERVE_DEFAULT_PARAMS) - set(params))
        if missing:
            problems.append(f"params missing keys: {missing}")
    modes = record.get("modes")
    if not isinstance(modes, dict):
        return problems + ["modes must be an object"]
    for mode in SERVE_MODES:
        entry = modes.get(mode)
        if not isinstance(entry, dict):
            problems.append(f"modes.{mode} missing or not an object")
            continue
        for key in ("connections", "requests", "errors"):
            if not isinstance(entry.get(key), int):
                problems.append(f"modes.{mode}.{key} must be an integer")
        wall = entry.get("wall")
        if not isinstance(wall, dict) or not all(
            isinstance(wall.get(k), (int, float))
            for k in ("p50_ms", "p99_ms", "max_ms")
        ):
            problems.append(
                f"modes.{mode}.wall must carry p50_ms/p99_ms/max_ms numbers"
            )
    threaded = modes.get("threaded")
    awaited = modes.get("async")
    if isinstance(threaded, dict) and isinstance(awaited, dict):
        tc, ac = threaded.get("connections"), awaited.get("connections")
        if isinstance(tc, int) and isinstance(ac, int) and tc > 0 and ac < 5 * tc:
            problems.append(
                f"async connections ({ac}) must be at least 5x the threaded "
                f"count ({tc}); the async front end exists to hold more "
                f"connections, and this record does not show it"
            )
        if not isinstance(awaited.get("group_commit"), dict):
            problems.append("modes.async.group_commit must be an object")
    return problems


def serve_gate_points(record: Dict[str, object]):
    """Deterministic points: errors stay zero, counters stay consistent."""
    modes = record["modes"]
    for mode in sorted(modes):  # type: ignore[call-overload]
        entry = modes[mode]  # type: ignore[index]
        yield f"{mode}/errors", int(entry["errors"])
        yield f"{mode}/counters_inconsistent", int(
            not entry.get("counters_consistent", True)
        )


def serve_wall_points(record: Dict[str, object]):
    """Warn-only points: latency percentiles and the fsync ratio."""
    modes = record["modes"]
    for mode in sorted(modes):  # type: ignore[call-overload]
        wall = modes[mode]["wall"]  # type: ignore[index]
        yield f"{mode}/p50_ms", float(wall["p50_ms"])
        yield f"{mode}/p99_ms", float(wall["p99_ms"])
    # Additive point: absent from pre-tracing baselines, so the compare
    # loop (which only warns when both sides carry a point) skips it.
    overhead = record.get("trace_overhead") or {}
    if isinstance(overhead, dict) and "p50_sampled_ms" in overhead:
        yield "threaded/p50_sampled_ms", float(overhead["p50_sampled_ms"])
    gc = modes["async"].get("group_commit") or {}  # type: ignore[index]
    if gc.get("mutations"):
        yield "async/fsyncs_per_mutation", float(gc["fsyncs_per_mutation"])
