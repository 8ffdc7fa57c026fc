"""The three service workloads: ``serve_read``, ``durable_rw``, ``routed_mixed``.

All three have the same shape -- start the system through the CLI, warm
it up, drive a timed closed-loop phase, read the public ``stats`` op
before and after, then check answers against the linear scan -- and
differ in what is started and what the stream mixes in (see
``streams.py``). Everything here talks to the system over its wire; the
in-process ladder of a traced run is in ``layers.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import os
import random
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.data import generate_county
from repro.service.server import send_request
from repro.shard import ShardMap
from repro.wal import DurableStore

from . import layers
from .config import Config
from .load import LoadSession, percentile_ms, slice_summary
from .oracle import Oracle
from .outcome import Outcome, ratio
from .procs import Artifacts, Child, Scratch, tree_bytes
from .reference import Reference
from .streams import endpoint, read_request, request_stream


@dataclasses.dataclass
class System:
    """One started system: where to reach it and what it keeps on disk."""

    address: Tuple[str, int]
    front: Child
    #: Durable store directory / shard-set root (``None`` for serve_read).
    root: Optional[str] = None


@dataclasses.dataclass
class Spec:
    structure: str
    depth: int
    start: Callable[[Scratch, Artifacts, Config, str], System]


def _serve_args(cfg: Config) -> List[str]:
    return ["--async", "--port", "0", "--cache-size", str(cfg.cache_size)]


def start_serve_read(scratch: Scratch, art: Artifacts, cfg: Config, tag: str) -> System:
    child = scratch.spawn(["serve", "--snapshot", art.snapshot("R*"), *_serve_args(cfg)])
    return System(child.wait_listening(), child)


def start_durable_rw(scratch: Scratch, art: Artifacts, cfg: Config, tag: str) -> System:
    root = scratch.path(f"store-{tag}")
    child = scratch.spawn(
        ["serve", "--snapshot", art.snapshot("PMR"), "--wal", root,
         "--group-commit", str(cfg.group_commit), *_serve_args(cfg)]
    )
    return System(child.wait_listening(), child, root)


def restart_durable(scratch: Scratch, cfg: Config, root: str) -> System:
    child = scratch.spawn(
        ["serve", "--wal", root, "--group-commit", str(cfg.group_commit),
         *_serve_args(cfg)]
    )
    return System(child.wait_listening(), child, root)


def start_routed_mixed(scratch: Scratch, art: Artifacts, cfg: Config, tag: str) -> System:
    root = scratch.path(f"shards-{tag}")
    shutil.copytree(art.shard_set(), root)
    workers = [
        scratch.spawn(["shard-worker", "--root", root, "--shard", spec.shard_id,
                       "--port", "0", "--group-commit", str(cfg.group_commit)])
        for spec in ShardMap.load(root).shards
    ]
    for worker in workers:
        worker.wait_listening()
    router = scratch.spawn(["route", "--root", root, "--async", "--port", "0"])
    return System(router.wait_listening(), router, root)


#: Structure served, pipeline depth per connection, how to start it.
SPECS: Dict[str, Spec] = {
    "serve_read": Spec("R*", 1, start_serve_read),
    "durable_rw": Spec("PMR", 8, start_durable_rw),
    "routed_mixed": Spec("R*", 1, start_routed_mixed),
}


# ----------------------------------------------------------------------
# The public ``stats`` op, flattened
# ----------------------------------------------------------------------
def counters(stats: Dict[str, Any]) -> Dict[str, float]:
    """The counters the benchmark takes deltas of, summed over shards
    when ``stats`` is a router's merged view."""
    nodes = list(stats["shards"].values()) if "shards" in stats else [stats]
    out = {name: float(stats["totals"][name])
           for name in ("disk_reads", "disk_writes", "buffer_hits")}
    for name, path in (
        ("cache_hits", ("cache", "hits")),
        ("cache_misses", ("cache", "misses")),
        ("cache_invalidations", ("cache", "invalidations")),
        ("latch_acquisitions", ("latch", "acquisitions")),
        ("latch_contended", ("latch", "contended")),
        ("wal_fsyncs", ("wal", "fsyncs")),
        ("wal_appends", ("wal", "log_appends")),
    ):
        out[name] = float(sum(node.get(path[0], {}).get(path[1], 0) for node in nodes))
    out["consistent"] = float(stats["counters_consistent"])
    return out


def wal_bytes(root: Optional[str]) -> int:
    """Bytes in every write-ahead log under ``root``."""
    if root is None:
        return 0
    log_name = os.path.basename(DurableStore.paths(root)["log"])
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(root)
        for name in names if name == log_name
    )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def check_reads(oracle: Oracle, asked: List[Tuple[Dict[str, Any], Any]], out: Outcome) -> None:
    for request, response in asked:
        out.attempted += 1
        problem = oracle.check_response(request, response)
        if problem is not None:
            out.fail(problem)


def world_window(map_data) -> Dict[str, Any]:
    """A window over the whole map: its answer is the live id set."""
    return {"op": "window", "x1": 0.0, "y1": 0.0,
            "x2": float(map_data.world_size), "y2": float(map_data.world_size)}


def check_live_set(oracle: Oracle, response: Any, out: Outcome) -> None:
    out.attempted += 1
    if not response.get("ok"):
        out.fail(f"world window failed: {response!r}")
        return
    got = response["result"]
    if len(got) != len(set(got)):
        out.fail("world window returned a segment twice")
    missing = set(oracle.live) - set(got)
    extra = set(got) - set(oracle.live)
    if missing or extra:
        out.fail(f"live set differs: {len(missing)} acknowledged segment(s) "
                 f"missing {sorted(missing)[:5]}, {len(extra)} unexpected "
                 f"{sorted(extra)[:5]}")


def start_measured(spec: Spec, scratch: Scratch, art: Artifacts, cfg: Config,
                   reference: Reference):
    """Start the system ``setup_trials`` times, keeping the last one up:
    ``(system, median seconds from spawn to first pong)``, the seconds at
    the fixed host speed."""
    def start(trial: int) -> System:
        system = spec.start(scratch, art, cfg, str(trial))
        pong = send_request(system.address, {"op": "ping"})
        if pong.get("result") != "pong":
            raise RuntimeError(f"no pong: {pong!r}")
        return system

    trials: List[float] = []
    for trial in range(cfg.setup_trials):
        scratch.stop_all()
        system, seconds = reference.timed_call(lambda: start(trial), cfg.reference_seconds)
        trials.append(seconds)
    return system, statistics.median(trials)


def run(name: str, cfg: Config, seed: int, seconds: float, trace: bool,
        spans: "layers.Spans") -> Outcome:
    spec = SPECS[name]
    out = Outcome()
    e2e, layer = out.end_to_end, out.per_layer
    art = Artifacts(cfg)
    # What the system starts from is built once per checkout (see procs)
    # and is not part of setup_s; a traced routed run builds the shard
    # set anew to time shard-init.
    if name == "routed_mixed":
        art.shard_set(rebuild=trace)
    else:
        art.snapshot(spec.structure)

    with Scratch() as scratch:
        reference = scratch.reference()
        map_data, generate_s = reference.timed_call(
            lambda: generate_county(cfg.county, scale=cfg.scale), cfg.reference_seconds)
        system, start_s = start_measured(spec, scratch, art, cfg, reference)
        e2e["setup_s"] = generate_s + start_s
        out.samples["setup_s"] = cfg.setup_trials

        streams = [request_stream(name, map_data, cfg, seed, conn)
                   for conn in range(cfg.connections)]
        fallback = read_request("point", endpoint(map_data, random.Random(seed)), 1,
                                map_data.world_size, cfg)
        session = LoadSession(system.address, streams, spec.depth, fallback)
        asked, live_answer, before, after, warm, slices = asyncio.run(
            _drive(session, reference, name, map_data, cfg, seed, seconds, system.root)
        )
        e2e["peak_rss_mb"] = scratch.peak_rss_mb()
        timed = session.samples[warm:]
        out.attempted += session.attempted
        out.failed += session.failed
        out.notes.extend(f"FAILED: {what}" for what in session.failures)

        oracle = Oracle(map_data.segments)
        for seg_id, segment in session.inserted.items():
            oracle.insert(seg_id, segment)
        for seg_id in session.deleted:
            oracle.delete(seg_id)
        check_reads(oracle, asked, out)
        check_live_set(oracle, live_answer, out)
        if not after["consistent"]:
            out.fail("stats reports counters_consistent: false")

        summary = slice_summary(slices)
        ops = len(timed)
        delta = {key: after[key] - before[key] for key in after}
        for metric in ("ops_per_s", "p50_ms", "p99_ms"):
            e2e[metric] = summary[metric]
            out.samples[metric] = summary["samples"]
        out.samples["samples_per_slice"] = summary["samples_per_slice"]
        out.host_note(reference.rates, summary)
        e2e["disk_accesses_per_op"] = ratio(delta["disk_reads"], ops)
        out.samples["disk_accesses_per_op"] = ops
        e2e["stored_bytes_per_segment"] = ratio(
            tree_bytes(system.root or art.snapshot(spec.structure)), len(oracle.live))

        if name == "durable_rw":
            system.front.kill()
            cold = crash_restarts(scratch, cfg, system, oracle, session, map_data, out)
            layer["cold_start_s"] = statistics.median(cold)
            out.samples["cold_start_s"] = len(cold)

        if trace:
            counter_metrics(timed, delta, session, layer)
            if name == "durable_rw":
                layers.wal_layer(cfg, art.snapshot("PMR"), system.root, scratch, spans, out)
            if name == "routed_mixed":
                layer["shard.fanout_p50_ms"] = percentile_ms(timed, ("insert",), 0.50)
                layer["shard.init_s"] = art.built_s["shards"]
                layers.routed_ladder(cfg, seed, map_data, system, spans, out)
            else:
                layers.single_server_ladder(name, spec, cfg, seed, map_data, art,
                                            scratch, spans, out)
    return out


def counter_metrics(timed, delta: Dict[str, float], session: LoadSession,
                    layer: Dict[str, float]) -> None:
    """Per-layer metrics read off the timed phase and the ``stats`` deltas
    around it; no tracing involved."""
    ops = len(timed)
    layer["storage.pool_hit_rate"] = ratio(
        delta["buffer_hits"], delta["buffer_hits"] + delta["disk_reads"])
    layer["storage.disk_writes_per_op"] = ratio(delta["disk_writes"], ops)
    layer["storage.latch_contended_ratio"] = ratio(
        delta["latch_contended"], delta["latch_acquisitions"])
    layer["service.cache_hit_rate"] = ratio(
        delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"])
    layer["service.cache_invalidations_per_op"] = ratio(delta["cache_invalidations"], ops)
    layer["service.read_p50_ms"] = percentile_ms(timed, ("read",), 0.50)
    layer["aio.overloaded_rate"] = ratio(session.overloaded, session.attempted)
    if delta["wal_appends"]:
        layer["service.mutation_p50_ms"] = percentile_ms(timed, ("insert", "delete"), 0.50)
        layer["service.mutation_p99_ms"] = percentile_ms(timed, ("insert", "delete"), 0.99)
        # A routed insert is logged by every shard, so on routed_mixed
        # these count shard-level log records.
        layer["wal.fsyncs_per_mutation"] = ratio(delta["wal_fsyncs"], delta["wal_appends"])
        layer["wal.bytes_per_mutation"] = ratio(delta["wal_bytes"], delta["wal_appends"])
        layer["aio.group_commit_mean_batch"] = ratio(delta["wal_appends"], delta["wal_fsyncs"])


async def _drive(session: LoadSession, reference: Reference, name: str, map_data,
                 cfg: Config, seed: int, seconds: float, root: Optional[str]):
    """Warm up, time, and re-ask the oracle's sample; all on one loop."""

    async def snapshot() -> Dict[str, float]:
        response = await session.ask({"op": "stats"})
        if not response.get("ok"):
            raise RuntimeError(f"stats failed: {response!r}")
        flat = counters(response["result"])
        flat["wal_bytes"] = float(wal_bytes(root))
        return flat

    await session.connect()
    await reference.open()
    try:
        await session.run(count=cfg.warmup_requests)
        warm = len(session.samples)
        before = await snapshot()
        slices = await session.timed(reference, seconds, cfg.slice_seconds,
                                     cfg.reference_seconds)
        after = await snapshot()
        # Outside the timed phase, with no mutation in flight: a seeded
        # sample of reads from a stream of their own, for the linear scan.
        probe = (r for r in request_stream(name, map_data, cfg, seed, conn=1000)
                 if r["op"] not in ("insert", "delete"))
        asked = []
        for request in itertools.islice(probe, cfg.oracle_checks):
            asked.append((request, await session.ask(request)))
        live_answer = await session.ask(world_window(map_data))
    finally:
        await reference.close()
        await session.close()
    return asked, live_answer, before, after, warm, slices


def crash_restarts(scratch: Scratch, cfg: Config, system: System, oracle: Oracle,
                    session: LoadSession, map_data, out: Outcome) -> List[float]:
    """After SIGKILL: restart from a copy of the killed store, time how
    long until it answers correctly, and check that every acknowledged
    write survived. Returns the cold-start times."""
    survivors = [sid for sid in session.inserted if sid in oracle.live]
    if not survivors:
        raise RuntimeError("durable_rw acknowledged no insert to check")
    witness = oracle.live[survivors[-1]]
    probe = {"op": "point", "x": witness.x2, "y": witness.y2}
    cold: List[float] = []
    for attempt in range(cfg.crash_restarts):
        copy = scratch.path(f"restart-{attempt}")
        shutil.copytree(system.root, copy)
        t0 = time.perf_counter()
        restarted = restart_durable(scratch, cfg, copy)
        answer = send_request(restarted.address, probe)
        cold.append(time.perf_counter() - t0)
        out.attempted += 1
        problem = oracle.check_response(probe, answer)
        if problem is not None:
            out.fail(f"after SIGKILL: {problem}")
        window = world_window(map_data)
        check_live_set(oracle, send_request(restarted.address, window, timeout=60.0), out)
        restarted.front.stop()
    return cold
