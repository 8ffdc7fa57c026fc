"""The traced run: spans around calls into each layer, from outside.

End-to-end metrics are measured untraced. A traced run replays a seeded
sample of the workload's stream up a ladder of public entry points, one
rung at a time, each rung from the same starting state:

    frame codec < parse_request < backend.run < QueryEngine.execute
      < MapServer.respond < threaded wire < async wire          (one server)
    shard legs < RouterCore.respond < async wire to the router  (routed)

Every call is one span -- name, start, end, the rung above as parent,
and the request's index in the sample as the shared id -- kept in memory
and written to ``trace.json`` when the run ends. A rung does everything
the rung below does plus its own layer's work, so a layer's self time is
the rung's median duration minus that of the rung below. The ladder
engines run with the result cache off (capacity 0): with it on, a hit
skips the rungs below and the subtraction means nothing; what the cache
saves is read off ``service.cache_hit_rate`` and ``service.read_p50_ms``.

Nothing here reaches into ``src/``: spans inside the program are a later
change, and these numbers are what it must reproduce.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import socket
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.aio import AsyncMapClient
from repro.aio.frames import HEADER_BYTES, decode_header, decode_payload, encode_frame
from repro.core.backends import resolve_backend
from repro.core.queries.spec import QuerySpec
from repro.geometry import Point, Rect
from repro.service import MapServer, QueryEngine, open_index
from repro.service.api import parse_request
from repro.shard import RouterCore, ShardClient, ShardMap, merge_id_lists, merge_nearest
from repro.wal import DurableStore, open_durable

from .streams import Request, static_sample

Span = Tuple[str, int, float, float, Optional[str]]


class Spans:
    """Spans in memory until the run ends."""

    def __init__(self) -> None:
        self.rows: List[Span] = []

    def call(self, name: str, rid: int, parent: Optional[str], fn: Callable, *args: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args)
        self.rows.append((name, rid, start, time.perf_counter(), parent))
        return result

    def add(self, name: str, rid: int, start: float, end: float, parent: Optional[str]) -> None:
        self.rows.append((name, rid, start, end, parent))

    def durations(self, name: str, rids: Optional[Sequence[int]] = None) -> List[float]:
        keep = None if rids is None else set(rids)
        return [end - start for n, rid, start, end, _ in self.rows
                if n == name and (keep is None or rid in keep)]

    def median_us(self, name: str, rids: Optional[Sequence[int]] = None) -> float:
        durations = self.durations(name, rids)
        return statistics.median(durations) * 1e6 if durations else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["name", "request", "start_s", "end_s", "parent"],
                 "spans": self.rows},
                fh,
            )


def to_spec(request: Request) -> QuerySpec:
    """The traversal a read request asks for."""
    op = request["op"]
    if op == "point":
        return QuerySpec.point(Point(request["x"], request["y"]))
    if op == "window":
        return QuerySpec.window(
            Rect(request["x1"], request["y1"], request["x2"], request["y2"]))
    return QuerySpec.nearest(Point(request["x"], request["y"]), request["k"])


class LineClient:
    """A persistent v1 connection: one JSON line out, one line back."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.fh = self.sock.makefile("rwb")

    def request(self, line: bytes) -> Dict[str, Any]:
        self.fh.write(line + b"\n")
        self.fh.flush()
        return json.loads(self.fh.readline())

    def close(self) -> None:
        self.fh.close()
        self.sock.close()


def _must_ok(responses: Sequence[Any], rung: str, out) -> None:
    bad = [r for r in responses if not (isinstance(r, dict) and r.get("ok"))]
    out.attempted += len(responses)
    for response in bad[:3]:
        out.fail(f"ladder rung {rung}: {response!r}")
    out.failed += max(0, len(bad) - 3)


def note_rungs(spans: Spans, out, rungs: Sequence[str]) -> None:
    """The whole rungs, beside the self times derived from them."""
    for rung in rungs:
        durations = spans.durations(rung)
        out.notes.append(
            f"ladder {rung}: median {statistics.median(durations) * 1e6:.1f} us, "
            f"mean {statistics.fmean(durations) * 1e6:.1f} us over {len(durations)} requests")


def _async_wire(address: Tuple[str, int], sample: Sequence[Request], spans: Spans,
                name: str, parent: Optional[str]) -> List[Any]:
    """The sample over one wire-v2 connection, one request in flight."""

    async def go() -> List[Any]:
        client = await AsyncMapClient.connect(address, timeout=30.0)
        try:
            responses = []
            for rid, request in enumerate(sample):
                start = time.perf_counter()
                responses.append(await client.request(request))
                spans.add(name, rid, start, time.perf_counter(), parent)
            return responses
        finally:
            await client.close()

    return asyncio.run(go())


# ----------------------------------------------------------------------
# One server: serve_read and durable_rw
# ----------------------------------------------------------------------
def single_server_ladder(name: str, spec, cfg, seed: int, map_data, art, scratch,
                         spans: Spans, out) -> None:
    snapshot = art.snapshot(spec.structure)
    durable = name == "durable_rw"
    sample = static_sample(name, map_data, cfg, seed, cfg.ladder_requests,
                           first_new_id=len(map_data.segments))
    reads = [rid for rid, r in enumerate(sample) if r["op"] not in ("insert", "delete")]
    lines = [json.dumps(r, separators=(",", ":")).encode() for r in sample]
    layer = out.per_layer
    fresh_count = itertools.count()

    def fresh_engine() -> Tuple[QueryEngine, Callable[[], None]]:
        """The snapshot reopened cold, behind an engine like the served
        one but for the result cache; durable_rw gets a store of its
        own so every rung logs and fsyncs the sample's mutations."""
        start = time.perf_counter()
        index = open_index(snapshot, pool_pages=cfg.pool_pages)
        layer.setdefault("storage.snapshot_open_s", time.perf_counter() - start)
        if not durable:
            return QueryEngine(index, cache_capacity=0), lambda: None
        store = DurableStore.create(
            scratch.path(f"ladder-store-{next(fresh_count)}"), index,
            group_commit=cfg.group_commit)
        return QueryEngine(index, cache_capacity=0, store=store), store.close

    # parse_request
    for rid, request in enumerate(sample):
        spans.call("service.parse", rid, "service.execute", parse_request, request)

    # backend.run (reads only: a mutation has no traversal to time)
    engine, close = fresh_engine()
    backend = resolve_backend(None)
    for rid in reads:
        spans.call("core.backend_run", rid, "service.execute",
                   backend.run, engine.index, to_spec(sample[rid]))
    close()

    # QueryEngine.execute
    engine, close = fresh_engine()
    session = engine.session("ladder")
    for rid, request in enumerate(sample):
        spans.call("service.execute", rid, "service.respond",
                   lambda r: engine.execute(parse_request(r), session=session), request)
    close()

    # MapServer.respond, then the same again for the tracing overhead
    engine, close = fresh_engine()
    server = MapServer(engine, port=0)
    try:
        session = engine.session("ladder")
        responses = [
            spans.call("service.respond", rid, "aio.threaded_wire", server.respond, line, session)
            for rid, line in enumerate(lines)
        ]
        _must_ok(responses, "service.respond", out)
        layer["obs.bench_trace_overhead_pct"] = trace_overhead_pct(
            lambda call: [call(server.respond, lines[rid], session) for rid in reads])
    finally:
        server.server_close()
        close()

    # frame codec, both directions of a round trip
    for rid, (request, response) in enumerate(zip(sample, responses)):
        start = time.perf_counter()
        for payload, is_response in ((request, False), (response, True)):
            frame = encode_frame(rid, payload, response=is_response)
            decode_header(frame[:HEADER_BYTES])
            decode_payload(frame[HEADER_BYTES:])
        spans.add("aio.frame_codec", rid, start, time.perf_counter(), "aio.async_wire")

    # the two transports, each a server process of its own on a cold copy
    def served(tag: str, extra: List[str]):
        args = ["serve", "--snapshot", snapshot, "--port", "0", "--cache-size", "0", *extra]
        if durable:
            args += ["--wal", scratch.path(f"ladder-wal-{tag}"),
                     "--group-commit", str(cfg.group_commit)]
        child = scratch.spawn(args)
        return child, child.wait_listening()

    child, address = served("threaded", [])
    client = LineClient(address)
    try:
        threaded = [spans.call("aio.threaded_wire", rid, None, client.request, line)
                    for rid, line in enumerate(lines)]
    finally:
        client.close()
        child.stop()
    _must_ok(threaded, "aio.threaded_wire", out)

    child, address = served("async", ["--async"])
    try:
        _must_ok(_async_wire(address, sample, spans, "aio.async_wire", None),
                 "aio.async_wire", out)
    finally:
        child.stop()

    respond = spans.median_us("service.respond")
    layer["aio.frame_codec_us"] = spans.median_us("aio.frame_codec")
    layer["service.parse_us"] = spans.median_us("service.parse")
    layer["core.backend_run_us"] = spans.median_us("core.backend_run")
    layer["service.engine_self_us"] = (
        spans.median_us("service.execute", reads) - spans.median_us("core.backend_run"))
    layer["service.respond_self_us"] = respond - spans.median_us("service.execute")
    layer["aio.threaded_wire_self_us"] = spans.median_us("aio.threaded_wire") - respond
    layer["aio.server_self_us"] = spans.median_us("aio.async_wire") - respond
    note_rungs(spans, out, ("core.backend_run", "service.execute", "service.respond",
                            "aio.threaded_wire", "aio.async_wire"))
    out.samples["ladder_requests"] = len(sample)


def trace_overhead_pct(replay: Callable[[Callable], Any], rounds: int = 5) -> float:
    """What recording a span around every call costs: wall time of a
    replay with spans against the same replay without, in percent of
    the latter. The two alternate ``rounds`` times and the fastest of
    each are compared: the difference is a fraction of a percent, the
    host's noise only ever adds time, and one pair of replays drowns in
    it. The replays are of reads, which leave the state they run on as
    it was."""
    def bare(fn, *args):
        return fn(*args)

    def timed(call) -> float:
        start = time.perf_counter()
        replay(call)
        return time.perf_counter() - start

    untraced, traced = [], []
    for _ in range(rounds):
        untraced.append(timed(bare))
        spans = Spans()
        traced.append(timed(lambda fn, *args: spans.call("overhead", 0, None, fn, *args)))
    return (min(traced) - min(untraced)) / min(untraced) * 100.0


# ----------------------------------------------------------------------
# Routed: the router against the live workers
# ----------------------------------------------------------------------
def routed_ladder(cfg, seed: int, map_data, system, spans: Spans, out) -> None:
    """The ladder of ``routed_mixed``, against the run's own workers:
    each request to its shards one leg at a time, then through an
    in-process ``RouterCore``, then over the wire to the router. The
    sample's inserts are applied by every rung; a leg-by-leg insert
    reaches every shard, as the router's fan-out does."""
    root = system.root
    smap = ShardMap.load(root)
    sample = static_sample("routed_mixed", map_data, cfg, seed, cfg.ladder_requests)
    lines = [json.dumps(r, separators=(",", ":")).encode() for r in sample]
    layer = out.per_layer

    def targets(request: Request):
        if request["op"] == "point":
            return smap.route_point(request["x"], request["y"])
        if request["op"] == "window":
            return smap.route_rect(
                Rect(request["x1"], request["y1"], request["x2"], request["y2"]))
        return smap.shards  # nearest and insert go everywhere

    reads = [rid for rid, r in enumerate(sample) if r["op"] != "insert"]
    layer["shard.shards_touched_per_read"] = statistics.fmean(
        len(targets(sample[rid])) for rid in reads)

    clients = {spec.shard_id: ShardClient(spec.shard_id, smap.store_path(root, spec.shard_id))
               for spec in smap.shards}
    try:
        for rid, request in enumerate(sample):
            legs = []
            for spec in targets(request):
                start = time.perf_counter()
                response = clients[spec.shard_id].request(request)
                end = time.perf_counter()
                spans.add("shard.leg", rid, start, end, "shard.slowest_leg")
                legs.append((end - start, start, end, response))
            _must_ok([leg[3] for leg in legs], "shard.leg", out)
            _, start, end, _ = max(legs, key=lambda leg: leg[0])
            spans.add("shard.slowest_leg", rid, start, end, "shard.router_respond")
            results = [leg[3].get("result") for leg in legs]
            if request["op"] == "nearest":
                spans.call("shard.merge", rid, "shard.router_respond",
                           merge_nearest, results, request["k"])
            elif request["op"] != "insert":
                spans.call("shard.merge", rid, "shard.router_respond", merge_id_lists, results)
    finally:
        for client in clients.values():
            client.close()

    core = RouterCore(root)
    try:
        _must_ok([spans.call("shard.router_respond", rid, "aio.async_wire", core.respond, line)
                  for rid, line in enumerate(lines)], "shard.router_respond", out)
        layer["obs.bench_trace_overhead_pct"] = trace_overhead_pct(
            lambda call: [call(core.respond, lines[rid]) for rid in reads])
    finally:
        core.close_clients()

    _must_ok(_async_wire(system.address, sample, spans, "aio.async_wire", None),
             "aio.async_wire", out)

    respond = spans.median_us("shard.router_respond")
    slowest = spans.median_us("shard.slowest_leg")
    layer["shard.slowest_leg_ms"] = slowest / 1e3
    layer["shard.router_self_us"] = respond - slowest
    layer["shard.merge_us"] = spans.median_us("shard.merge")
    layer["aio.server_self_us"] = spans.median_us("aio.async_wire") - respond
    note_rungs(spans, out, ("shard.slowest_leg", "shard.router_respond", "aio.async_wire"))
    out.samples["ladder_requests"] = len(sample)


# ----------------------------------------------------------------------
# The write-ahead log on its own
# ----------------------------------------------------------------------
WAL_RECORDS = 200


def wal_layer(cfg, snapshot: str, killed_root: str, scratch, spans: Spans, out) -> None:
    """``log_insert`` and ``commit`` timed on a scratch store, and
    ``open_durable`` timed on a copy of the store the run SIGKILLed."""
    layer = out.per_layer
    index = open_index(snapshot, pool_pages=cfg.pool_pages)
    store = DurableStore.create(scratch.path("wal-scratch"), index,
                                group_commit=cfg.group_commit)
    try:
        segment = index.ctx.segments.peek(0)
        first = len(index.ctx.segments)
        for i in range(WAL_RECORDS):
            spans.call("wal.append", i, "wal.commit", store.log_insert, first + i, segment)
            spans.call("wal.commit", i, None, store.commit)
    finally:
        store.close()
    layer["wal.append_us"] = spans.median_us("wal.append")
    layer["wal.commit_ms"] = spans.median_us("wal.commit") / 1e3

    copy = scratch.path("recover-copy")
    shutil.copytree(killed_root, copy)
    start = time.perf_counter()
    recovered = open_durable(copy, pool_pages=cfg.pool_pages, group_commit=cfg.group_commit)
    seconds = time.perf_counter() - start
    spans.add("wal.recover", 0, start, start + seconds, None)
    try:
        layer["wal.recover_s"] = seconds
        layer["wal.replay_records_per_s"] = recovered.replayed_records / seconds
        out.samples["wal.replay_records_per_s"] = recovered.replayed_records
    finally:
        recovered.close()
