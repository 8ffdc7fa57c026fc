"""Golden protocol equivalence: threaded v1 oracle vs async v1 vs async v2.

Three servers over byte-identical engines run the same request script --
reads, mutations, every error class -- through three transports:

* the threaded :class:`MapServer` over a plain v1 socket (the oracle),
* the :class:`AsyncMapServer` over the same plain v1 socket,
* the :class:`AsyncMapServer` over negotiated v2 frames.

Deterministic ops must produce *identical* envelopes; ``stats`` (which
leaks session names and timings) is compared on its deterministic
projection. This is the suite that keeps the async server from drifting
semantically from the threaded one. In front of the shard router, which
serves from the asyncio server only, its v1 answers are the golden its
v2 answers must match (:class:`TestRoutedEquivalence`).
"""

import asyncio
import json
import re
import shutil
import socket
import time

import pytest

from repro.aio import (
    HEADER_BYTES,
    AsyncMapClient,
    AsyncMapServer,
    decode_header,
    decode_payload,
    encode_frame,
)
from repro.data.counties import generate_county
from repro.obs import dtrace
from repro.obs.trace import TRACER
from repro.service import MapServer, Protocol, QueryEngine, send_request
from repro.shard import LocalShardSet, ShardRouter, init_shard_set

from tests.conftest import build_index, lattice_map

#: The golden script. ``"seg_id": "INSERTED"`` is replaced per-run with
#: whatever the script's insert returned (identical engines return
#: identical ids, so the envelopes still line up exactly).
GOLDEN_OPS = [
    {"op": "ping"},
    {"op": "ping", "v": 1},
    {"op": "point", "x": 100, "y": 100},
    {"op": "window", "x1": 0, "y1": 0, "x2": 400, "y2": 400},
    {"op": "window", "x1": 50, "y1": 50, "x2": 350, "y2": 350, "mode": "contains"},
    {"op": "nearest", "x": 300, "y": 300, "k": 3},
    {
        "op": "batch",
        "order": "morton",
        "requests": [
            {"op": "point", "x": 100, "y": 100},
            {"op": "window", "x1": 0, "y1": 0, "x2": 200, "y2": 200},
            {"op": "nearest", "x": 60, "y": 60, "k": 1},
        ],
    },
    {"op": "insert", "x1": 5, "y1": 5, "x2": 30, "y2": 35},
    {"op": "point", "x": 5, "y": 5},
    {"op": "delete", "seg_id": "INSERTED"},
    {"op": "point", "x": 5, "y": 5},
    {"op": "check"},
    {
        "op": "explain",
        "query": {"op": "window", "x1": 0, "y1": 0, "x2": 200, "y2": 200},
    },
    # Every error class, as data: same code, same message, any transport.
    {"op": "bogus"},
    {"op": "insert", "x1": "abc", "y1": 0, "x2": 1, "y2": 1},
    {"op": "insert", "x1": 0, "y1": 0, "x2": 10},
    {"op": "window", "x1": 10**400, "y1": 0, "x2": 1, "y2": 1},
    {"op": "delete", "seg_id": 999999},
    {"op": "delete", "seg_id": True},
    {"op": "checkpoint"},
    {"op": "ping", "v": 3},
    {"op": "stats"},
]


def _fresh_engine():
    return QueryEngine(build_index("R*", lattice_map(n=8)))


def _resolve(op, inserted):
    if op.get("seg_id") == "INSERTED":
        op = dict(op, seg_id=inserted)
    return op


def _run_script_v1(address, ops=GOLDEN_OPS):
    """The whole script down one persistent v1 connection."""
    envelopes = []
    inserted = None
    with socket.create_connection(address, timeout=10) as sock:
        with sock.makefile("rwb") as fh:
            for op in ops:
                op = _resolve(op, inserted)
                fh.write(json.dumps(op).encode() + b"\n")
                fh.flush()
                envelope = json.loads(fh.readline())
                if op["op"] == "insert" and envelope.get("ok"):
                    inserted = envelope["result"]
                envelopes.append(envelope)
    return envelopes


def _run_script_v1_in_one_write(address, ops):
    """The whole script as one write down one v1 connection, then every
    reply read back. The one ``INSERTED`` id is resolved up front: every
    engine here is built the same, so it assigns the same id."""
    insert = next(op for op in ops if op["op"] == "insert")
    inserted = Protocol(_fresh_engine()).respond_line(json.dumps(insert))["result"]
    lines = b"".join(json.dumps(_resolve(op, inserted)).encode() + b"\n" for op in ops)
    with socket.create_connection(address, timeout=10) as sock:
        with sock.makefile("rwb") as fh:
            fh.write(lines)
            fh.flush()
            return [json.loads(fh.readline()) for _ in ops]


def _run_script_v2(address, ops=GOLDEN_OPS):
    """The whole script down one pipelined v2 connection, in order."""

    async def main():
        envelopes = []
        inserted = None
        client = await AsyncMapClient.connect(address)
        try:
            for op in ops:
                op = _resolve(op, inserted)
                if op.get("v") is not None:
                    # The "v" pin is v1 framing business; inside v2 the
                    # version is settled. Send the op without the pin and
                    # re-attach the echo the v1 transports will have, so
                    # the envelope comparison stays exact -- except bad
                    # versions, which v1 rejects but v2 cannot express.
                    if op["v"] not in (1, 2):
                        envelopes.append(None)
                        continue
                    envelope = await client.request(
                        {k: v for k, v in op.items() if k != "v"}
                    )
                    envelope = dict(envelope, v=op["v"])
                else:
                    envelope = await client.request(op)
                if op["op"] == "insert" and envelope.get("ok"):
                    inserted = envelope["result"]
                envelopes.append(envelope)
        finally:
            await client.close()
        return envelopes

    return asyncio.run(main())


def _strip_timings(value):
    """Drop wall-clock fields (explain carries ``elapsed_ms``)."""
    if isinstance(value, dict):
        return {
            k: _strip_timings(v)
            for k, v in value.items()
            if k not in ("elapsed_ms",)
        }
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def _stats_projection(envelope):
    """The deterministic slice of a stats envelope."""
    result = envelope["result"]
    return {
        "ok": envelope["ok"],
        "index_kind": result["index"]["kind"],
        "segments": result["index"]["segments"],
        "durable": result["durable"],
        "counters_consistent": result["counters_consistent"],
    }


@pytest.fixture()
def oracle():
    srv = MapServer(_fresh_engine())
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture()
def async_server(monkeypatch):
    monkeypatch.setattr("repro.aio.server.EXECUTOR_WORKERS", 2)
    srv = AsyncMapServer(_fresh_engine())
    srv.start_background()
    yield srv
    srv.stop()


class TestEquivalence:
    def _compare(self, golden, candidate, transport, ops=GOLDEN_OPS):
        assert len(golden) == len(candidate)
        for op, want, got in zip(ops, golden, candidate):
            if got is None:
                continue  # inexpressible on this transport (bad v1 pin)
            if op["op"] == "stats":
                assert _stats_projection(want) == _stats_projection(got), op
            elif op.get("v") not in (None, 1, 2):
                # The rejection message names the versions each server
                # speaks -- the one divergence that IS the protocol
                # (clients downgrade off it). Code and type still match.
                assert want["ok"] is False and got["ok"] is False
                assert want["error"]["code"] == got["error"]["code"]
                assert want["error"]["type"] == got["error"]["type"]
            else:
                assert _strip_timings(want) == _strip_timings(got), (
                    f"{transport} diverged on {op}"
                )

    def test_async_v1_matches_threaded_oracle(self, oracle, async_server):
        golden = _run_script_v1(oracle.address)
        candidate = _run_script_v1(async_server.address)
        self._compare(golden, candidate, "async-v1")

    def test_async_v2_matches_threaded_oracle(self, oracle, async_server):
        golden = _run_script_v1(oracle.address)
        candidate = _run_script_v2(async_server.address)
        self._compare(golden, candidate, "async-v2")

    def test_deep_v1_pipelining_answers_alike(self, oracle, async_server):
        """100 pings and then the script, all in one write: v1 has no
        request ids, so each server reads the connection one request at
        a time and answers every line, in order -- however deep the
        client pipelines, it cannot trip an in-flight cap."""
        ops = [{"op": "ping"}] * 100 + GOLDEN_OPS
        golden = _run_script_v1_in_one_write(oracle.address, ops)
        assert golden[:100] == [{"ok": True, "result": "pong"}] * 100
        candidate = _run_script_v1_in_one_write(async_server.address, ops)
        self._compare(golden, candidate, "async-v1-pipelined", ops)

    def test_error_codes_cover_every_class(self, oracle):
        codes = {
            envelope["error"]["code"]
            for envelope in _run_script_v1(oracle.address)
            if not envelope["ok"]
        }
        assert {"unknown_op", "bad_args", "unknown_seg", "not_durable"} <= codes


class TestSessionRetirement:
    """A connection's session lasts as long as the connection: when it
    ends, what it was charged is folded into one ``closed`` row, on
    either front -- so ``stats`` (built inside the latch) stays the size
    of the *live* connections however many one-shot clients came by."""

    @pytest.mark.parametrize("front", ["oracle", "async_server"])
    def test_ended_connections_are_one_row(self, front, request):
        server = request.getfixturevalue(front)
        for i in range(200):
            at = 100 * (i % 8 + 1)
            assert send_request(server.address, {"op": "point", "x": at, "y": at})["ok"]
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "point", "x": 100, "y": 100}\n')
                fh.flush()
                assert json.loads(fh.readline())["ok"]
                # A server notices a close just after the client made it.
                deadline = time.monotonic() + 5.0
                while True:
                    stats = send_request(server.address, {"op": "stats"})["result"]
                    if len(stats["sessions"]) <= 3 or time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
        rows = {row["name"]: row for row in stats["sessions"]}
        # The held connection, the one asking, and everything that ended.
        assert len(rows) == 3 and "closed" in rows, sorted(rows)
        assert rows["closed"]["queries"] >= 200
        held = [name for name in rows if name != "closed"]
        assert all(re.fullmatch(r"a?conn-\d+", name) for name in held), held
        assert stats["counters_consistent"] is True
        for field, total in stats["totals"].items():
            assert total == sum(row[field] for row in rows.values()), field


class TestBlankLines:
    """A blank or whitespace-only v1 line is framing noise: no transport
    answers it. v1 has no request ids -- order *is* the correlation -- so
    one stray reply would desync every response behind it."""

    BLANKS = b"\n  \n"

    @pytest.mark.parametrize("which", ["threaded", "async"])
    def test_v1_blank_lines_get_no_reply(self, which, oracle, async_server):
        address = (oracle if which == "threaded" else async_server).address
        with socket.create_connection(address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(self.BLANKS + b'{"op":"ping"}\n' + self.BLANKS)
                fh.write(b'{"op":"ping","v":1}\n')
                fh.flush()
                # Exactly one reply per real request, in order: a reply
                # to a blank line would show up in the first slot.
                assert json.loads(fh.readline()) == {"ok": True, "result": "pong"}
                assert json.loads(fh.readline()) == {
                    "ok": True,
                    "result": "pong",
                    "v": 1,
                }

    def test_blank_lines_before_the_v2_upgrade(self, async_server):
        with socket.create_connection(async_server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(self.BLANKS + b'{"op":"ping","v":2}\n')
                fh.write(encode_frame(7, {"op": "ping"}))
                fh.flush()
                ack = json.loads(fh.readline())
                assert ack["ok"] and ack["v"] == 2, ack
                _flags, length, request_id = decode_header(fh.read(HEADER_BYTES))
                assert request_id == 7
                assert decode_payload(fh.read(length)) == {
                    "ok": True,
                    "result": "pong",
                }


# ----------------------------------------------------------------------
# The same three transports in front of the shard router
# ----------------------------------------------------------------------
ROUTED_SHARDS = 3

#: World-relative script (``W`` is replaced by the map's world size).
#: No ``stats``: routed stats carry per-shard session names and timings.
ROUTED_OPS = [
    {"op": "ping"},
    {"op": "ping", "v": 1},
    {"op": "point", "x": 0.5, "y": 0.5},
    {"op": "window", "x1": 0, "y1": 0, "x2": 1, "y2": 1},
    {"op": "window", "x1": 0.2, "y1": 0.2, "x2": 0.6, "y2": 0.6, "mode": "contains"},
    {"op": "nearest", "x": 0.25, "y": 0.25, "k": 5},
    {
        "op": "batch",
        "order": "morton",
        "requests": [
            {"op": "point", "x": 0.5, "y": 0.5},
            {"op": "window", "x1": 0, "y1": 0, "x2": 0.4, "y2": 0.4},
            {"op": "nearest", "x": 0.7, "y": 0.7, "k": 2},
        ],
    },
    {"op": "insert", "x1": 0.01, "y1": 0.01, "x2": 0.02, "y2": 0.03},
    {"op": "point", "x": 0.01, "y": 0.01},
    {"op": "delete", "seg_id": "INSERTED"},
    {"op": "delete", "seg_id": "INSERTED"},
    {"op": "point", "x": 0.01, "y": 0.01},
    {"op": "check"},
    {"op": "bogus"},
    {"op": "insert", "x1": "abc", "y1": 0, "x2": 1, "y2": 1},
    {"op": "insert", "x1": 0, "y1": 0, "x2": 10},
    {"op": "window", "x1": 10**400, "y1": 0, "x2": 1, "y2": 1},
    {"op": "delete", "seg_id": True},
    {"op": "ping", "v": 3},
]


def _scaled(ops, world):
    """Multiply every coordinate in the script by the world size."""

    def scale(op):
        out = {}
        for key, value in op.items():
            if key in ("x", "y", "x1", "y1", "x2", "y2") and not isinstance(
                value, str
            ):
                value = value * world
            elif key == "requests":
                value = [scale(member) for member in value]
            out[key] = value
        return out

    return [scale(op) for op in ops]


def _portless(envelope):
    """Each shard set has its own worker ports; nothing else may differ."""
    error = dict(envelope["error"])
    error["message"] = re.sub(r"127\.0\.0\.1:\d+", "HOST:PORT", error["message"])
    return dict(envelope, error=error)


@pytest.fixture(scope="module")
def routed_sets(tmp_path_factory):
    """Two byte-identical shard sets, one per wire under test (the
    script mutates, so the runs cannot share one)."""
    base = tmp_path_factory.mktemp("routed_golden")
    map_data = generate_county("cecil", scale=0.01)
    roots = [base / name for name in ("v1", "v2")]
    init_shard_set(
        roots[0], "R*", map_data=map_data, n_shards=ROUTED_SHARDS, page_size=2048
    )
    shutil.copytree(roots[0], roots[1])
    return roots, map_data.world_size


class TestRoutedEquivalence:
    def test_v2_frames_answer_as_v1_lines(self, routed_sets):
        """The router's v1 run is the golden: its v2 run must match it
        envelope for envelope, degraded answer included."""
        roots, world = routed_sets
        ops = _scaled(ROUTED_OPS, world)
        window = {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}
        runs = []
        degraded = []
        for root, run_script in ((roots[0], _run_script_v1), (roots[1], _run_script_v2)):
            with LocalShardSet(root) as shards:
                router = ShardRouter(root)
                router.start_background()
                try:
                    runs.append(run_script(router.address, ops))
                    down = sorted(router.core.clients)[0]
                    shards.stop(down)
                    if run_script is _run_script_v1:
                        degraded.append(send_request(router.address, window))
                    else:
                        degraded.extend(_run_script_v2(router.address, [window]))
                finally:
                    router.stop()
        golden = runs[0]
        codes = {e["error"]["code"] for e in golden if not e["ok"]}
        assert {"unknown_op", "bad_args", "unknown_seg"} <= codes
        TestEquivalence()._compare(golden, runs[1], "router-v2", ops)

        want = _portless(degraded[0])
        assert want["error"]["code"] == "shard_unavailable"
        assert want["error"]["shard"] == "s0"
        assert want["partial"]["shards"] == ["s1", "s2"]
        assert want["partial"]["result"]
        assert _portless(degraded[1]) == want


# ----------------------------------------------------------------------
# Trace-context propagation under v2 pipelining (satellite S3)
# ----------------------------------------------------------------------
#: Interleaved per-request ops: deterministic reads, so the envelopes
#: (minus trace identity) must match the threaded oracle exactly.
_TRACED_OPS = [
    {"op": "point", "x": 100, "y": 100},
    {"op": "window", "x1": 0, "y1": 0, "x2": 400, "y2": 400},
    {"op": "nearest", "x": 300, "y": 300, "k": 3},
    {"op": "point", "x": 200, "y": 200},
    {"op": "window", "x1": 50, "y1": 50, "x2": 350, "y2": 350},
    {"op": "nearest", "x": 60, "y": 60, "k": 1},
    {"op": "point", "x": 300, "y": 100},
    {"op": "window", "x1": 100, "y1": 100, "x2": 300, "y2": 300},
]


def _strip_tc(envelope):
    return {k: v for k, v in envelope.items() if k != "tc"}


def _span_shape(record):
    """A span tree minus what differs run to run: clocks, span ids, and
    the attributes (pool hit or miss depends on what ran just before)."""
    return (
        record["name"],
        record.get("parent_id"),
        [_span_shape(child) for child in record.get("spans", ())],
    )


class TestTracePipelining:
    """N interleaved sampled+unsampled requests on ONE v2 connection must
    produce N disjoint, correctly parented trees -- the thread-local
    handoff must never bleed context between pipelined requests that
    share executor threads."""

    @pytest.fixture()
    def traced(self):
        TRACER.clear()
        TRACER.arm(1.0)
        yield
        TRACER.disarm()
        TRACER.clear()

    def test_pipelined_contexts_stay_disjoint(self, traced, oracle, async_server):
        # Even-indexed requests sampled, odd unsampled; every request
        # carries its own freshly minted context.
        contexts = [
            dtrace.TraceContext(
                dtrace.new_trace_id(), dtrace.new_span_id(), i % 2 == 0
            )
            for i in range(len(_TRACED_OPS))
        ]
        discarded_before = TRACER.stats()["tail_discarded"]

        async def main():
            client = await AsyncMapClient.connect(async_server.address)
            try:
                # One pipelined burst: all requests in flight at once on
                # one socket, resolved in whatever order the two executor
                # threads finish them. The context rides in the payload,
                # as on v1 -- there is no other encoding to negotiate.
                return await asyncio.gather(
                    *(
                        client.request(dict(op, tc=ctx.to_wire()))
                        for op, ctx in zip(_TRACED_OPS, contexts)
                    )
                )
            finally:
                await client.close()

        envelopes = asyncio.run(main())

        # --- each response carries exactly its own trace identity ------
        for i, (ctx, envelope) in enumerate(zip(contexts, envelopes)):
            assert envelope["ok"], envelope
            tc = envelope["tc"]
            assert tc["t"] == ctx.trace_id, f"request {i} got a foreign trace"
            if ctx.sampled:
                subtree = tc["span"]
                assert subtree["trace_id"] == ctx.trace_id
                assert subtree["parent_id"] == ctx.span_id
                assert subtree["name"] == _TRACED_OPS[i]["op"]
            else:
                assert tc["f"] == 0
                assert "span" not in tc

        # --- the trees are disjoint: N distinct ids, no sharing --------
        assert len({ctx.trace_id for ctx in contexts}) == len(contexts)
        sampled = [ctx for ctx in contexts if ctx.sampled]
        for ctx in sampled:
            record = TRACER.find(ctx.trace_id)
            assert record is not None, f"sampled trace {ctx.trace_id} not retained"
            assert record["parent_id"] == ctx.span_id

        # --- unsampled skeletons were tail-discarded, not retained -----
        unsampled = [ctx for ctx in contexts if not ctx.sampled]
        for ctx in unsampled:
            assert TRACER.find(ctx.trace_id) is None
        assert (
            TRACER.stats()["tail_discarded"] - discarded_before
            >= len(unsampled)
        )

        # --- and the threaded oracle, sent the same "tc" on a v1 line,
        # answers the same payload and the same subtree ----------------
        for op, ctx, envelope in zip(_TRACED_OPS, contexts, envelopes):
            want = send_request(oracle.address, dict(op, tc=ctx.to_wire()))
            assert _strip_timings(_strip_tc(want)) == _strip_timings(
                _strip_tc(envelope)
            ), f"traced v2 diverged from oracle on {op}"
            assert (want["tc"]["t"], want["tc"]["f"]) == (
                envelope["tc"]["t"],
                envelope["tc"]["f"],
            )
            assert ("span" in want["tc"]) == ("span" in envelope["tc"]) == ctx.sampled
            if ctx.sampled:
                assert _span_shape(want["tc"]["span"]) == _span_shape(
                    envelope["tc"]["span"]
                ), f"v1 and v2 returned different subtrees for {op}"
