"""``python -m repro bench-serve``: the load generator.

Builds (or reopens from a snapshot) one index, starts a server on an
ephemeral port -- the threaded :class:`~repro.service.server.MapServer`,
or with ``use_async`` the :class:`~repro.aio.server.AsyncMapServer` --
and drives it with K connections issuing a mixed point/window/nearest
workload over real TCP. Reports throughput, latency percentiles, cache
hit rate, disk accesses, latch contention, and the per-session/total
counter consistency check, then measures the batch executor's
Morton-order scheduling against arrival order on a cold pool.

There is one driver, and it works the wire out from what the server
answers: every connection offers the v2 upgrade; a server that takes it
is driven with up to ``pipeline`` requests in flight on that connection,
and a server that refuses (the threaded one answers the pin with
``bad_args`` -- the documented downgrade path) is driven closed-loop
over v1 lines on the same connection.

With ``mutate_frac > 0`` against a durable server (``wal_dir``) the run
doubles as the group-commit measurement: concurrent inserts from many
connections land in shared WAL fsync batches, and the report's
``group_commit`` section shows fsyncs-per-mutation (1.0 is the threaded
server's floor; smaller is the batching win).

``connect`` mode (``bench-serve --connect host:port [--connect ...]``)
drives *running* servers instead of building one: connection ``i`` goes
to address ``i mod N`` (round-robin), so one generator can load a shard
router, the routed and unrouted endpoints side by side, or several
workers at once. Engine-side statistics (cache, latch, batch
scheduling) are whatever the target's ``stats`` op reports.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.aio.client import AsyncMapClient
from repro.aio.server import AsyncMapServer
from repro.core.interface import WORLD_SIZE
from repro.metric_names import BUFFER_HITS, COUNTER_FIELDS, DISK_ACCESSES
from repro.obs.trace import TRACER
from repro.service.batch import BatchExecutor, Request
from repro.service.engine import QueryEngine
from repro.service.server import _COMPACT, MapServer, send_request
from repro.service.snapshot import open_index


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
    latch: Dict[str, Any]
    totals: Dict[str, int]
    counters_consistent: bool
    batch_comparison: Dict[str, int] = field(default_factory=dict)
    obs: Dict[str, Any] = field(default_factory=dict)
    group_commit: Dict[str, Any] = field(default_factory=dict)

    @property
    def batch_improvement(self) -> float:
        """Fractional disk-access reduction of Morton over arrival order."""
        arrival = self.batch_comparison.get("arrival", 0)
        morton = self.batch_comparison.get("morton", 0)
        return (arrival - morton) / arrival if arrival else 0.0


def _workload(
    index, n: int, rng: random.Random, window_frac: float = 0.03
) -> List[Request]:
    """A mixed workload drawn from the served map itself.

    Query sites come from stored segments via :meth:`SegmentTable.peek`
    (no pool traffic, so generation does not perturb the measurements);
    the mix is 50% point, 30% window, 20% nearest.
    """
    table = index.ctx.segments
    count = len(table)
    if count == 0:
        raise ValueError("cannot generate a workload over an empty index")
    sample = [table.peek(rng.randrange(count)) for _ in range(min(count, 256))]
    xs = [c for s in sample for c in (s.x1, s.x2)]
    ys = [c for s in sample for c in (s.y1, s.y2)]
    extent = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    half = extent * window_frac / 2.0

    requests: List[Request] = []
    for _ in range(n):
        seg = table.peek(rng.randrange(count))
        roll = rng.random()
        if roll < 0.5:
            x, y = (seg.x1, seg.y1) if rng.random() < 0.5 else (seg.x2, seg.y2)
            requests.append({"op": "point", "x": x, "y": y})
        elif roll < 0.8:
            cx = (seg.x1 + seg.x2) / 2.0
            cy = (seg.y1 + seg.y2) / 2.0
            requests.append(
                {
                    "op": "window",
                    "x1": cx - half,
                    "y1": cy - half,
                    "x2": cx + half,
                    "y2": cy + half,
                }
            )
        else:
            requests.append(
                {
                    "op": "nearest",
                    "x": seg.x1 + rng.uniform(-half, half),
                    "y": seg.y1 + rng.uniform(-half, half),
                    "k": rng.randint(1, 3),
                }
            )
    return requests


def parse_address(spec: str) -> Tuple[str, int]:
    """``host:port`` -> ``(host, port)`` (the ``--connect`` CLI shape)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like host:port, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad port in address {spec!r}") from None


def _uniform_workload(
    n: int, rng: random.Random, world_size: float, window_frac: float = 0.03
) -> List[Request]:
    """The same point/window/nearest mix as :func:`_workload`, drawn
    uniformly over the world square (connect mode has no local table to
    sample sites from)."""
    half = world_size * window_frac / 2.0
    requests: List[Request] = []
    for _ in range(n):
        x, y = rng.uniform(0, world_size), rng.uniform(0, world_size)
        roll = rng.random()
        if roll < 0.5:
            requests.append({"op": "point", "x": x, "y": y})
        elif roll < 0.8:
            requests.append(
                {
                    "op": "window",
                    "x1": x - half,
                    "y1": y - half,
                    "x2": x + half,
                    "y2": y + half,
                }
            )
        else:
            requests.append(
                {"op": "nearest", "x": x, "y": y, "k": rng.randint(1, 3)}
            )
    return requests


def _mutating_workload(
    index, n: int, rng: random.Random, mutate_frac: float
) -> List[Request]:
    """The read mix with a ``mutate_frac`` share of small inserts."""
    table = index.ctx.segments
    count = len(table)
    out: List[Request] = []
    for request in _workload(index, n, rng):
        if rng.random() < mutate_frac:
            seg = table.peek(rng.randrange(count))
            request = {
                "op": "insert",
                "x1": seg.x1,
                "y1": seg.y1,
                "x2": seg.x1 + rng.uniform(0.1, 2.0),
                "y2": seg.y1 + rng.uniform(0.1, 2.0),
            }
        out.append(request)
    return out


async def _drive_connection(
    address: Tuple[str, int],
    share: List[Request],
    pipeline: int,
    latencies: List[float],
    failures: Dict[str, int],
) -> None:
    """One connection's share of the load, on whichever wire it gets.

    Always accounts for every request of the share exactly once: a dead
    or dying server turns the unanswered remainder into counted errors
    instead of an exception the caller would have to untangle.
    """
    loop = asyncio.get_running_loop()
    try:
        client, reader, writer = await AsyncMapClient.negotiate(
            address, timeout=30.0
        )
    except (ConnectionError, OSError, ValueError, asyncio.TimeoutError):
        failures["errors"] += len(share)  # never connected: all failed
        return
    if client is not None:
        send, depth = client.request, pipeline
    else:
        # v1 has no request ids: one request in flight, order correlates.
        depth = 1

        async def send(request: Request) -> Dict[str, Any]:
            writer.write(
                json.dumps(request, separators=_COMPACT).encode("utf-8") + b"\n"
            )
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
                failures[
                    "overloaded" if code == "server_overloaded" else "errors"
                ] += 1

    try:
        await asyncio.gather(*(fire(request) for request in share))
    finally:
        if client is not None:
            await client.close()
        else:
            writer.close()


def _run_load(
    addresses: List[Tuple[str, int]],
    workload: List[Request],
    connections: int,
    pipeline: int,
) -> Dict[str, Any]:
    """Drive ``addresses`` (round-robin) with the workload split over
    ``connections`` connections. Returns what the load itself measured,
    keyed by the :class:`BenchReport` fields it fills."""
    shares = [workload[i::connections] for i in range(connections)]
    latencies: List[float] = []
    failures = {"errors": 0, "overloaded": 0}

    async def drive() -> None:
        await asyncio.gather(
            *(
                _drive_connection(
                    addresses[i % len(addresses)],
                    share,
                    pipeline,
                    latencies,
                    failures,
                )
                for i, share in enumerate(shares)
                if share
            )
        )

    start = time.perf_counter()
    asyncio.run(drive())
    elapsed = time.perf_counter() - start
    latencies.sort()
    return {
        "threads": connections,
        "pipeline": pipeline,
        "requests": len(latencies),
        "errors": failures["errors"],
        "overloaded": failures["overloaded"],
        "elapsed_seconds": elapsed,
        "throughput_qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": percentile(latencies, 0.50) * 1e3,
            "p90": percentile(latencies, 0.90) * 1e3,
            "p99": percentile(latencies, 0.99) * 1e3,
            "max": (latencies[-1] if latencies else 0.0) * 1e3,
        },
    }


def _remote_stats(address: Tuple[str, int]) -> Tuple[Dict[str, Any], int]:
    """What a running target's ``stats`` op says about itself: a single
    server and the shard router both expose ``totals`` and
    ``counters_consistent``. The second value is 1 when ``stats`` could
    not be read -- a target nobody checked counts as an error, never as
    consistent -- else 0."""
    out: Dict[str, Any] = {
        "structure": "remote",
        "segments": 0,
        "totals": dict.fromkeys([*COUNTER_FIELDS, DISK_ACCESSES], 0),
        "counters_consistent": False,
    }
    try:
        stats = send_request(address, {"op": "stats"})
    except (OSError, ValueError):
        return out, 1
    if not stats.get("ok"):
        return out, 1
    result = stats["result"]
    out["totals"] = dict(result.get("totals", out["totals"]))
    out["counters_consistent"] = bool(result.get("counters_consistent", True))
    if "index" in result:
        out["structure"] = result["index"]["kind"]
        out["segments"] = result["index"]["segments"]
    elif "shards" in result:
        out["structure"] = f"routed[{len(result['shards'])}]"
        out["segments"] = max(
            (s["index"]["segments"] for s in result["shards"].values()),
            default=0,
        )
    return out, 0


def bench_serve(
    county: str = "charles",
    scale: float = 0.02,
    structure: str = "R*",
    threads: int = 4,
    requests: int = 200,
    snapshot: Optional[str] = None,
    cache_capacity: int = 256,
    batch_queries: int = 120,
    seed: int = 0,
    trace: bool = False,
    slow_ms: Optional[float] = None,
    connect: Optional[List[Tuple[str, int]]] = None,
    world_size: Optional[float] = None,
    use_async: bool = False,
    pipeline: int = 8,
    wal_dir: Optional[str] = None,
    mutate_frac: float = 0.0,
) -> BenchReport:
    """Run the full benchmark; see the module docstring.

    ``threads`` is the connection count. ``use_async`` only chooses
    which in-process server to start (sized so admission control never
    rejects the configured load -- the saturation being measured is
    executor queueing, which the latency percentiles capture); it means
    nothing with ``connect``, where the servers are already running.
    ``wal_dir`` makes the in-process server durable -- pair it with
    ``mutate_frac`` to measure group commit.

    With ``trace=True`` the process tracer is enabled for the run (and
    restored afterwards), so the report's ``obs`` section shows how many
    traces the workload produced; ``slow_ms`` arms the engine's
    slow-query log at that threshold.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if pipeline < 1:
        raise ValueError(f"pipeline must be >= 1, got {pipeline}")
    rng = random.Random(seed)
    if connect:
        workload = _uniform_workload(
            requests, rng, float(WORLD_SIZE) if world_size is None else world_size
        )
        load = _run_load(connect, workload, threads, pipeline)
        remote, unread = _remote_stats(connect[0])
        load["errors"] += unread
        return BenchReport(
            source="connect:" + ",".join(f"{h}:{p}" for h, p in connect),
            cache={"hits": 0, "misses": 0, "hit_rate": 0.0, "invalidations": 0},
            latch={"acquisitions": 0, "contended": 0},
            **remote,
            **load,
        )

    if snapshot is not None:
        index = open_index(snapshot)
        source = f"snapshot:{snapshot}"
    else:
        from repro.data import generate_county
        from repro.harness.experiment import build_structure

        built = build_structure(structure, generate_county(county, scale=scale))
        index = built.index
        source = f"built:{county}@{scale}"
    store = None
    if wal_dir is not None:
        from repro.wal.store import DurableStore

        store = DurableStore.create(wal_dir, index, group_commit=1)
        source += f" wal:{wal_dir}"

    engine = QueryEngine(
        index, cache_capacity=cache_capacity, store=store, slow_ms=slow_ms
    )
    if use_async:
        server: Any = AsyncMapServer(
            engine,
            max_inflight_per_conn=pipeline,
            max_inflight_total=max(1024, threads * pipeline),
        )
    else:
        server = MapServer(engine)
    server.start_background()
    was_tracing = TRACER.enabled
    if trace:
        TRACER.enable()
    try:
        if mutate_frac > 0.0:
            workload = _mutating_workload(index, requests, rng, mutate_frac)
        else:
            workload = _workload(index, requests, rng)
        fsyncs_before = store.wal.stats()["fsyncs"] if store is not None else 0
        load = _run_load([server.address], workload, threads, pipeline)
        group_commit: Dict[str, Any] = {}
        if store is not None:
            mutations = sum(1 for r in workload if r["op"] == "insert")
            fsyncs = store.wal.stats()["fsyncs"] - fsyncs_before
            group_commit = {
                "mutations": mutations,
                "fsyncs": fsyncs,
                "fsyncs_per_mutation": fsyncs / mutations if mutations else 0.0,
            }
            committer = getattr(server, "committer", None)
            if committer is not None:
                batching = committer.stats()
                for key in ("batches", "committed", "max_batch"):
                    group_commit[key] = batching[key]

        # Batch scheduling study: same requests, cold pool, cache off.
        compare_load = [
            r for r in _workload(index, batch_queries, random.Random(seed + 1))
            if r["op"] in ("point", "window")
        ]
        comparison = BatchExecutor(engine).compare_orders(compare_load)

        report = BenchReport(
            structure=index.name,
            source=source,
            segments=len(index.ctx.segments),
            cache=engine.cache.stats(),
            latch=engine.latch.stats(),
            totals=dict(engine.stats()["totals"]),
            counters_consistent=engine.counters_consistent(),
            batch_comparison={
                order: result.disk_accesses
                for order, result in comparison.items()
            },
            obs={
                "tracing": TRACER.stats(),
                "slow_queries": engine.slow_log.stats(),
            },
            group_commit=group_commit,
            **load,
        )
    finally:
        if trace and not was_tracing:
            TRACER.disable()
        server.stop()  # joins the server's threads: nothing outlives the bench
        if store is not None:
            store.close()
    return report


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
    if report.batch_comparison:
        arrival = report.batch_comparison["arrival"]
        morton = report.batch_comparison["morton"]
        lines.append(
            f"  batch order     arrival={arrival} vs morton={morton} disk "
            f"accesses ({report.batch_improvement:.0%} fewer via Morton sort)"
        )
    gc = report.group_commit
    if gc:
        line = f"  group commit    {gc['mutations']} mutations -> {gc['fsyncs']} fsyncs"
        if "batches" in gc:
            line += f" in {gc['batches']} batches (max batch {gc['max_batch']}"
        else:
            line += " (inline commit"
        lines.append(f"{line}, {gc['fsyncs_per_mutation']:.2f} fsyncs/mutation)")
    tracing = report.obs.get("tracing", {})
    if tracing.get("enabled"):
        slow = report.obs.get("slow_queries", {})
        lines.append(
            f"  tracing         {tracing['finished']} traces captured "
            f"({tracing['buffered']} buffered, "
            f"{slow.get('recorded', 0)} slow queries)"
        )
    return "\n".join(lines)
