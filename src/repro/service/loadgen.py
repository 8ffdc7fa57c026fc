"""``python -m repro bench-serve``: the load generator.

A pure client of *running* servers (``serve``, ``shard-worker``,
``route``; threaded or ``--async``): K connections issue a seeded mixed
point/window/nearest workload -- with ``mutate_frac``, a share of small
inserts -- over real TCP. Connection ``i`` goes to address ``i mod N``,
so one generator can load a router, the routed and unrouted endpoints
side by side, or several workers at once.

Beside what the load itself measured (throughput, latency percentiles,
errors) the report says what the load cost the *target*: the movement of
the first address's ``stats`` op across the run -- cache, latch, paper
counters, WAL appends and fsyncs -- summed over the shards when that
address is a router. Against a durable target the WAL movement is the
group-commit measurement (fsyncs per logged mutation).
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.aio.client import AsyncMapClient
from repro.core.interface import WORLD_SIZE
from repro.metric_names import BUFFER_HITS, COUNTER_FIELDS, DISK_ACCESSES
from repro.service.batch import Request
from repro.service.server import _COMPACT, send_request

#: What the report takes from the target's ``stats``, as movement across
#: the run: section -> fields.
_MOVED = {
    "totals": (*COUNTER_FIELDS, DISK_ACCESSES),
    "cache": ("hits", "misses", "invalidations"),
    "latch": ("acquisitions", "contended"),
    "wal": ("log_appends", "fsyncs"),
}


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending list (nearest-rank)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class BenchReport:
    """Everything one ``bench-serve`` run measured."""

    structure: str
    source: str
    segments: int
    threads: int  # connections (named for the CLI flag that sets it)
    pipeline: int
    requests: int
    errors: int
    overloaded: int
    elapsed_seconds: float
    throughput_qps: float
    latency_ms: Dict[str, float]
    cache: Dict[str, Any]
    latch: Dict[str, int]
    totals: Dict[str, int]
    wal: Dict[str, int]  # all zero unless the target is durable
    counters_consistent: bool


def parse_address(spec: str) -> Tuple[str, int]:
    """``host:port`` -> ``(host, port)`` (the ``--connect`` CLI shape)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like host:port, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad port in address {spec!r}") from None


def _workload(
    n: int, rng: random.Random, world_size: float, mutate_frac: float
) -> List[Request]:
    """``n`` requests at sites drawn uniformly over the world square (a
    client has no segment table to sample from): 50% point, 30% window
    (3% of the world a side), 20% nearest, of which a ``mutate_frac``
    share is replaced by the insert of a short segment at the same site."""
    half = world_size * 0.03 / 2.0
    requests: List[Request] = []
    for _ in range(n):
        x, y = rng.uniform(0, world_size), rng.uniform(0, world_size)
        roll = rng.random()
        if rng.random() < mutate_frac:
            x2 = min(x + rng.uniform(0.1, 2.0), world_size)
            y2 = min(y + rng.uniform(0.1, 2.0), world_size)
            request = {"op": "insert", "x1": x, "y1": y, "x2": x2, "y2": y2}
        elif roll < 0.5:
            request = {"op": "point", "x": x, "y": y}
        elif roll < 0.8:
            x1, y1, x2, y2 = x - half, y - half, x + half, y + half
            request = {"op": "window", "x1": x1, "y1": y1, "x2": x2, "y2": y2}
        else:
            request = {"op": "nearest", "x": x, "y": y, "k": rng.randint(1, 3)}
        requests.append(request)
    return requests


async def _drive_connection(
    address: Tuple[str, int],
    share: List[Request],
    pipeline: int,
    latencies: List[float],
    failures: Dict[str, int],
) -> None:
    """One connection's share of the load, on whichever wire it gets.

    The wire is worked out from what the server answers: the connection
    offers the v2 upgrade; a server that takes it is driven with up to
    ``pipeline`` requests in flight, and one that refuses (the threaded
    server answers the pin with ``bad_args`` -- the documented downgrade
    path) is driven closed-loop over v1 lines on the same connection.

    Always accounts for every request of the share exactly once: a dead
    or dying server turns the unanswered remainder into counted errors
    instead of an exception the caller would have to untangle.
    """
    loop = asyncio.get_running_loop()
    try:
        client, reader, writer = await AsyncMapClient.negotiate(address, 30.0)
    except (ConnectionError, OSError, ValueError, asyncio.TimeoutError):
        failures["errors"] += len(share)  # never connected: all failed
        return
    if client is not None:
        send, depth = client.request, pipeline
    else:
        # v1 has no request ids: one request in flight, order correlates.
        depth = 1

        async def send(request: Request) -> Dict[str, Any]:
            writer.write(json.dumps(request, separators=_COMPACT).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 60.0)
            if not line:
                raise ConnectionError("server closed the connection")
            return json.loads(line)

    slots = asyncio.Semaphore(depth)

    async def fire(request: Request) -> None:
        async with slots:
            start = loop.time()
            try:
                response = await send(request)
            except (ConnectionError, OSError, ValueError, asyncio.TimeoutError):
                failures["errors"] += 1
                return
            latencies.append(loop.time() - start)
            if not response.get("ok"):
                code = (response.get("error") or {}).get("code")
                failures["overloaded" if code == "server_overloaded" else "errors"] += 1

    try:
        await asyncio.gather(*(fire(request) for request in share))
    finally:
        if client is not None:
            await client.close()
        else:
            writer.close()


def _engine_stats(address: Tuple[str, int]) -> Optional[List[Dict[str, Any]]]:
    """The engine-level ``stats`` behind a running target -- one dict
    from a single server, one per shard from a router -- or ``None``
    when the target's ``stats`` op cannot be read."""
    try:
        reply = send_request(address, {"op": "stats"})
    except (OSError, ValueError):
        return None
    if not reply.get("ok"):
        return None
    stats = reply["result"]
    return list(stats["shards"].values()) if "shards" in stats else [stats]


def bench_serve(
    connect: List[Tuple[str, int]],
    threads: int = 4,
    requests: int = 200,
    seed: int = 0,
    pipeline: int = 8,
    mutate_frac: float = 0.0,
    world_size: float = float(WORLD_SIZE),
) -> BenchReport:
    """Drive the running servers at ``connect`` with ``requests`` requests
    split over ``threads`` connections; see the module docstring.

    A target whose ``stats`` could not be read, before or after the load,
    was checked by nobody: that is one error, and never consistent.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if pipeline < 1:
        raise ValueError(f"pipeline must be >= 1, got {pipeline}")
    workload = _workload(requests, random.Random(seed), world_size, mutate_frac)
    latencies: List[float] = []
    failures = {"errors": 0, "overloaded": 0}

    async def drive() -> None:
        await asyncio.gather(
            *(
                _drive_connection(
                    connect[i % len(connect)], share, pipeline, latencies, failures
                )
                for i, share in enumerate(workload[j::threads] for j in range(threads))
                if share
            )
        )

    before = _engine_stats(connect[0])
    start = time.perf_counter()
    asyncio.run(drive())
    elapsed = time.perf_counter() - start
    after = _engine_stats(connect[0])
    if before is None or after is None:
        failures["errors"] += 1
        before = after = []
    latencies.sort()

    def total(engines: List[Dict[str, Any]], section: str, name: str) -> int:
        return sum(engine.get(section, {}).get(name, 0) for engine in engines)

    sections: Dict[str, Dict[str, Any]] = {
        section: {
            name: total(after, section, name) - total(before, section, name)
            for name in names
        }
        for section, names in _MOVED.items()
    }
    cache = sections["cache"]
    lookups = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    kinds = [engine["index"]["kind"] for engine in after] or ["unknown"]
    return BenchReport(
        structure=kinds[0] if len(kinds) == 1 else f"routed[{len(kinds)}]",
        source="connect:" + ",".join(f"{h}:{p}" for h, p in connect),
        segments=max((e["index"]["segments"] for e in after), default=0),
        threads=threads,
        pipeline=pipeline,
        requests=len(latencies),
        elapsed_seconds=elapsed,
        throughput_qps=len(latencies) / elapsed if elapsed > 0 else 0.0,
        latency_ms={
            name: percentile(latencies, q) * 1e3
            for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0))
        },
        counters_consistent=bool(after)
        and all(e["counters_consistent"] for e in after),
        **failures,
        **sections,
    )


def format_bench_report(report: BenchReport) -> str:
    lat = report.latency_ms
    lines = [
        f"map server benchmark -- {report.structure} over {report.source}",
        f"  segments        {report.segments}",
        f"  clients         {report.threads} connections, "
        f"pipeline depth {report.pipeline} (on v2 connections)",
        f"  requests        {report.requests} ({report.errors} errors, "
        f"{report.overloaded} overloaded)",
        f"  elapsed         {report.elapsed_seconds:.3f} s "
        f"({report.throughput_qps:.0f} q/s)",
        f"  latency (ms)    p50={lat['p50']:.2f}  p90={lat['p90']:.2f}  "
        f"p99={lat['p99']:.2f}  max={lat['max']:.2f}",
        f"  cache           {report.cache['hits']} hits / "
        f"{report.cache['misses']} misses "
        f"(hit rate {report.cache['hit_rate']:.0%}, "
        f"{report.cache['invalidations']} invalidations)",
        f"  disk accesses   {report.totals[DISK_ACCESSES]} "
        f"(buffer hits {report.totals[BUFFER_HITS]})",
        f"  latch           {report.latch['acquisitions']} acquisitions, "
        f"{report.latch['contended']} contended",
        f"  counters        per-session sums match totals: "
        f"{report.counters_consistent}",
    ]
    appends, fsyncs = report.wal["log_appends"], report.wal["fsyncs"]
    if appends:  # the target logged this run's mutations: it is durable
        lines.append(
            f"  group commit    {appends} mutations -> {fsyncs} fsyncs "
            f"({fsyncs / appends:.2f} fsyncs/mutation)"
        )
    return "\n".join(lines)
