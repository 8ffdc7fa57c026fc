"""The sans-IO protocol core, driven without a server: bytes in, envelope out.

Every transport is framing around :class:`repro.service.protocol.Protocol`,
so what a request *means* is tested here once, table-driven, over both
kinds of target: a :class:`QueryEngine` and a :class:`RouterCore` (whose
shard workers are live, because routing is what that target does -- the
protocol core itself is never handed a socket).
"""

import ast
import json
import os
import re

import pytest

from repro.core.interface import WORLD_SIZE
from repro.data.counties import generate_county
from repro.errors import ERROR_CODES, ServerOverloadedError
from repro.obs import dtrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER
from repro.service import Protocol, QueryEngine
from repro.service import protocol as protocol_module
from repro.service.protocol import Request, is_short_read
from repro.shard import LocalShardSet, RouterCore, init_shard_set
from repro.wal.store import DurableStore

from tests.conftest import TEST_WORLD, build_index, lattice_map
from tests.test_aio_server import GateBackend

PONG = {"ok": True, "result": "pong"}


def _engine():
    return QueryEngine(build_index("R*", lattice_map(n=8)))


@pytest.fixture(scope="module")
def routed(tmp_path_factory):
    root = tmp_path_factory.mktemp("protocol_core_shards")
    map_data = generate_county("cecil", scale=0.01)
    init_shard_set(root, "R*", map_data=map_data, n_shards=2, page_size=2048)
    with LocalShardSet(root) as shards:
        core = RouterCore(root)
        yield core, shards, map_data.world_size
        core.close_clients()


@pytest.fixture(params=["engine", "router"])
def target(request):
    if request.param == "engine":
        return _engine()
    return request.getfixturevalue("routed")[0]


#: ``(line, speaks, expected)`` -- ``expected`` is the whole envelope, or
#: ``None`` for "no reply", or a ``(code, type)`` pair for an error (the
#: message is free text; code and exception class are the contract).
LINE_TABLE = [
    (b'{"op":"ping"}', (1,), PONG),
    (b'  {"op": "ping"}  \n', (1,), PONG),
    ('{"op":"ping"}', (1,), PONG),  # str works as well as bytes
    (b"", (1,), None),
    (b"\n", (1,), None),
    (b"  \t \r\n", (1, 2), None),
    (b"this is not json", (1,), ("bad_args", "JSONDecodeError")),
    (b"[1, 2]", (1,), ("bad_args", "ProtocolError")),
    (b'"ping"', (1, 2), ("bad_args", "ProtocolError")),
    (b'{"op":"bogus"}', (1,), ("unknown_op", "ProtocolError")),
    (b'{"no_op":1}', (1,), ("unknown_op", "ProtocolError")),
    (b'{"op":"insert","x1":"abc","y1":0,"x2":1,"y2":1}', (1,), ("bad_args", None)),
    (b'{"op":"insert","x1":0,"y1":0,"x2":10}', (1,), ("bad_args", None)),
    (b'{"op":"delete","seg_id":true}', (1,), ("bad_args", None)),
    # "v" pins: echoed when spoken, refused (naming what is spoken) when not.
    (b'{"op":"ping","v":1}', (1,), dict(PONG, v=1)),
    (b'{"op":"ping","v":1}', (1, 2), dict(PONG, v=1)),
    (b'{"op":"ping","v":2}', (1, 2), dict(PONG, v=2)),
    (b'{"op":"ping","v":2}', (1,), ("bad_args", "ProtocolError")),
    (b'{"op":"ping","v":3}', (1, 2), ("bad_args", "ProtocolError")),
    (b'{"op":"ping","v":true}', (1, 2), ("bad_args", "ProtocolError")),
    (b'{"op":"ping","v":"1"}', (1,), ("bad_args", "ProtocolError")),
    (b'{"op":"ping","v":null}', (1,), PONG),
]


class TestLines:
    @pytest.mark.parametrize("line,speaks,expected", LINE_TABLE)
    def test_line_table(self, target, line, speaks, expected):
        envelope = Protocol(target, speaks).respond_line(line)
        if expected is None or isinstance(expected, dict):
            assert envelope == expected
            return
        code, type_name = expected
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == code
        if type_name is not None:
            assert envelope["error"]["type"] == type_name
        assert "v" not in envelope  # an unparsed pin is never echoed

    def test_version_refusal_names_what_is_spoken(self, target):
        line = b'{"op":"ping","v":9}'
        v1 = Protocol(target).respond_line(line)["error"]["message"]
        both = Protocol(target, (1, 2)).respond_line(line)["error"]["message"]
        assert v1.endswith("this server speaks v1")
        assert both.endswith("this server speaks v1 and v2")

    def test_frames_neither_check_nor_echo_a_pin(self, target):
        protocol = Protocol(target, (1, 2))
        envelope, lsn = protocol.run(protocol.decode_frame(b'{"op":"ping","v":7}'))
        assert envelope == PONG and lsn is None
        bad = protocol.run(protocol.decode_frame(b"\x00\x01"))[0]
        assert bad["error"]["code"] == "bad_args"
        empty = protocol.run(protocol.decode_frame(b""))[0]
        assert empty["error"]["code"] == "bad_args"

    @pytest.mark.parametrize("bit", [0, 1, 7])
    def test_a_request_frame_may_set_no_flag_bit(self, target, bit):
        """Bit 0 is a response's, bit 1 was the trace trailer's, bit 7 is
        nobody's: a request frame with any of them is ``bad_args``, and
        what it carried is not run."""
        protocol = Protocol(target, (1, 2))
        request = protocol.decode_frame(b'{"op":"ping"}', 1 << bit)
        envelope, lsn = protocol.run(request)
        assert envelope["ok"] is False and lsn is None
        assert envelope["error"]["code"] == "bad_args"
        assert envelope["error"]["type"] == "ProtocolError"
        assert f"{1 << bit:#04x}" in envelope["error"]["message"]


class TestErrorClasses:
    """Every code in ``ERROR_CODES`` is reachable through the core."""

    def test_engine_target_classes(self):
        engine = _engine()
        protocol = Protocol(engine, (1, 2))
        seen = {}

        def code_of(envelope):
            assert envelope["ok"] is False
            seen[envelope["error"]["code"]] = envelope["error"]["type"]
            return envelope["error"]["code"]

        assert code_of(protocol.respond_line(b'{"op":"bogus"}')) == "unknown_op"
        assert code_of(protocol.respond_line(b"nope")) == "bad_args"
        assert (
            code_of(protocol.respond_line(b'{"op":"delete","seg_id":999999}'))
            == "unknown_seg"
        )
        assert code_of(protocol.respond_line(b'{"op":"checkpoint"}')) == "not_durable"

        pinned = protocol.decode_line(b'{"op":"ping","v":2}')
        over = protocol.failed(pinned, ServerOverloadedError("server overloaded: test"))
        assert code_of(over) == "server_overloaded"
        assert over["v"] == 2 and over["error"]["message"].endswith("test")
        big = protocol.oversized(512)
        assert code_of(big) == "frame_too_large" and "512-byte" in big["error"]["message"]
        failed = protocol.failed(pinned, OSError("fsync: disk on fire"))
        assert code_of(failed) == "internal" and failed["v"] == 2
        assert seen["internal"] == "OSError"

        engine.execute = lambda request, session=None: 1 / 0  # a server-side bug
        boom = protocol.respond_line(b'{"op":"stats"}')
        assert code_of(boom) == "internal" and boom["error"]["type"] == "ZeroDivisionError"
        assert set(seen) == set(ERROR_CODES) - {"shard_unavailable"}

    def test_routed_error_carries_shard_and_partial(self, routed):
        core, shards, world = routed
        line = b'{"op":"window","x1":0,"y1":0,"x2":%d,"y2":%d,"v":1}' % (world, world)
        whole = core.respond(line)
        assert whole["ok"] and whole["v"] == 1
        down = sorted(core.clients)[0]
        shards.stop(down)
        try:
            envelope = core.respond(line)
        finally:
            shards.start(down)
        assert envelope["ok"] is False and envelope["v"] == 1
        assert envelope["error"]["code"] == "shard_unavailable"
        assert envelope["error"]["shard"] == down
        assert envelope["partial"]["shards"] == sorted(set(core.clients) - {down})
        assert set(envelope["partial"]["result"]) < set(whole["result"])

    def test_router_counts_every_request_once(self, routed):
        core = routed[0]

        def count(op, status):
            return core.registry.counter(
                "repro_router_requests_total", op=op, status=status
            ).value

        labels = [
            ("invalid", "error"),
            ("ping", "error"),
            ("ping", "ok"),
            ("bogus", "error"),
        ]
        before = [count(*pair) for pair in labels]
        for line in (b"garbage", b"[]", b'{"op":"ping","v":5}', b"\n"):
            core.respond(line)
        core.respond(b'{"op":"ping"}')
        core.respond(b'{"op":"bogus"}')
        after = [count(*pair) for pair in labels]
        assert [b - a for a, b in zip(before, after)] == [2, 1, 1, 1]


#: A window mode the server advertised from PR 4 on and never ran.
CLIPS = {"op": "window", "x1": 0, "y1": 0, "x2": 300, "y2": 300, "mode": "clips"}


@pytest.mark.parametrize("front", ["engine", "routed"])
@pytest.mark.parametrize(
    "payload",
    [CLIPS, {"op": "batch", "requests": [CLIPS]}, {"op": "explain", "query": CLIPS}],
    ids=["standalone", "batch member", "explain"],
)
def test_a_mode_nothing_runs_is_refused_before_any_engine(request, payload, front):
    """``bad_args`` naming exactly the modes that run, raised where the
    request is parsed: no engine looks in its cache, tallies a query or
    counts a failed window for it, and a router scatters nothing."""
    if front == "engine":
        engines = [QueryEngine(build_index("R*", lattice_map(n=8)), registry=MetricsRegistry())]
        protocol = Protocol(engines[0])
        registry, counter = engines[0].registry, "repro_queries_total"
    else:
        core, shards, _world = request.getfixturevalue("routed")
        engines = [server.engine for server in shards.servers.values()]
        protocol, registry, counter = core.protocol, core.registry, "repro_router_requests_total"
    refused = registry.counter(counter, op=payload["op"], status="error")

    def moved():
        return (
            [(e.cache.misses, sum(s.queries for s in e.sessions())) for e in engines],
            [
                e.registry.counter("repro_queries_total", op="window", status="error").value
                for e in engines
            ],
        )

    before, refusals = moved(), refused.value
    session = protocol.session("client")
    envelope = protocol.run(protocol.decode_line(json.dumps(payload)), session)[0]
    assert envelope["ok"] is False, envelope
    assert envelope["error"]["code"] == "bad_args"
    message = envelope["error"]["message"]
    assert "one of ('intersects', 'contains')," in message and "got 'clips'" in message
    # A router counts every request it answers; an engine only what
    # enters it, and of these only the batch does (to fail on its member).
    assert refused.value == refusals + (front == "routed" or payload["op"] == "batch")
    assert moved() == before


#: JSON's non-finite spellings ``json.loads`` accepts (the first three
#: are not JSON at all), and one finite-looking literal it reads as inf.
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")
NUMERIC_FIELDS = {
    "point": {"x": 100, "y": 100},
    "window": {"x1": 0, "y1": 0, "x2": 300, "y2": 300},
    "nearest": {"x": 100, "y": 100},
    "insert": {"x1": 5, "y1": 5, "x2": 30, "y2": 35},
}


def _non_finite_requests():
    """Every numeric field of every op, in every spelling, as raw JSON."""
    for op, fields in NUMERIC_FIELDS.items():
        for name in fields:
            for token in NON_FINITE:
                pairs = [f'"op":"{op}"'] + [
                    f'"{key}":{token if key == name else value}'
                    for key, value in fields.items()
                ]
                yield "{" + ",".join(pairs) + "}"


class TestNonFiniteNumbers:
    """A coordinate must be finite: NaN or an infinity reaching an index
    answers nonsense or, on an insert, corrupts it."""

    def _assert_refused(self, protocol, requests):
        for request in requests:
            for line in (request, '{"op":"batch","requests":[%s]}' % request):
                envelope = protocol.respond_line(line)
                assert envelope["ok"] is False, line
                assert envelope["error"]["code"] == "bad_args", (line, envelope)

    def test_every_numeric_field_refuses_every_spelling(self, target):
        self._assert_refused(Protocol(target), list(_non_finite_requests()))

    @pytest.mark.parametrize("kind", ["R*", "R+", "PMR"])
    def test_a_durable_store_logs_none_of_them(self, tmp_path, kind):
        index = build_index(kind, lattice_map(n=8))
        store = DurableStore.create(str(tmp_path / "store"), index)
        try:
            protocol = Protocol(QueryEngine(index, store=store))
            lsn = store.last_lsn
            self._assert_refused(protocol, list(_non_finite_requests()))
            assert store.last_lsn == lsn
            check = protocol.respond_line(b'{"op":"check"}')
            assert check["ok"] and check["result"]["clean"] is True, check
        finally:
            store.close()


class TestNearestOverflow:
    """A finite point can still be too far away: squared, its distance to
    the map overflows to ``inf``, which ``json.dumps`` would send as the
    non-standard token ``Infinity``. It is refused when parsed."""

    @pytest.mark.parametrize("kind", ["R*", "R+", "PMR"])
    def test_refused_when_the_distance_overflows(self, kind):
        protocol = Protocol(QueryEngine(build_index(kind, lattice_map(n=8))))
        for x, y in ((1e155, 0), (0, -1e155), (1e154, 1e154)):
            envelope = protocol.respond_line(
                json.dumps({"op": "nearest", "x": x, "y": y, "k": 2})
            )
            assert envelope["ok"] is False, (x, y, envelope)
            assert envelope["error"]["code"] == "bad_args", envelope
        # Just inside the bound the answer is ok, and standard JSON.
        for x, y in ((1.3e154, 0), (-9e153, 9e153), (512, 512)):
            envelope = protocol.respond_line(
                json.dumps({"op": "nearest", "x": x, "y": y, "k": 2})
            )
            assert envelope["ok"] is True, (x, y, envelope)
            assert len(envelope["result"]) == 2
            json.dumps(envelope, allow_nan=False)


class TestTraceContext:
    @pytest.fixture()
    def traced(self):
        TRACER.clear()
        TRACER.arm(1.0)
        yield
        TRACER.disarm()
        TRACER.clear()

    def _assert_parented(self, envelope, ctx, op):
        assert envelope["ok"], envelope
        tc = envelope["tc"]
        assert tc["t"] == ctx.trace_id
        assert tc["span"]["parent_id"] == ctx.span_id
        assert tc["span"]["name"] == op

    def test_tc_as_json_field_and_as_v2_trailer(self, traced, target):
        """One encoding: the ``"tc"`` field of the request object, whether
        that object arrived as a v1 line or as a v2 frame's payload."""
        protocol = Protocol(target, (1, 2))
        ctx = dtrace.TraceContext(dtrace.new_trace_id(), dtrace.new_span_id(), True)
        as_field = json.dumps({"op": "point", "x": 100, "y": 100, "tc": ctx.to_wire()})
        self._assert_parented(protocol.respond_line(as_field), ctx, "point")
        framed = protocol.decode_frame(as_field.encode())
        assert framed.raw["tc"] == ctx.to_wire()
        self._assert_parented(protocol.run(framed)[0], ctx, "point")

    def test_bad_context_degrades_to_untraced_and_errors_keep_tc(self, traced):
        protocol = Protocol(_engine())
        envelope = protocol.respond_line(b'{"op":"point","x":1,"y":1,"tc":"junk"}')
        # No usable caller context: the server roots its own trace and
        # returns its identity only (there is no caller to graft under).
        assert envelope["ok"] and "span" not in envelope["tc"]
        failed = protocol.respond_line(b'{"op":"delete","seg_id":999999}')
        assert failed["error"]["code"] == "unknown_seg"
        assert failed["tc"]["t"] != envelope["tc"]["t"]

    def test_disabled_tracing_attaches_nothing(self, target):
        assert not TRACER.enabled
        envelope = Protocol(target).respond_line(b'{"op":"point","x":100,"y":100}')
        assert envelope["ok"] and "tc" not in envelope


class TestDeferredCommit:
    """``run(deferred=True)`` hands the fsync to the transport: it returns
    the LSN the ack must wait for and leaves the WAL unsynced."""

    INSERT = b'{"op":"insert","x1":5,"y1":5,"x2":30,"y2":35}'

    @pytest.fixture()
    def durable(self, tmp_path):
        index = build_index("R*", lattice_map(n=8))
        store = DurableStore.create(str(tmp_path / "store"), index)
        yield QueryEngine(index, store=store), store
        store.close()

    def test_inline_commit_fsyncs_before_returning(self, durable):
        engine, store = durable
        protocol = Protocol(engine)
        fsyncs = store.wal.stats()["fsyncs"]
        envelope, lsn = protocol.run(protocol.decode_line(self.INSERT))
        assert envelope["ok"] and lsn is None
        assert store.wal.stats()["fsyncs"] == fsyncs + 1

    def test_deferred_insert_returns_its_lsn_unsynced(self, durable):
        engine, store = durable
        protocol = Protocol(engine, (1, 2))
        fsyncs = store.wal.stats()["fsyncs"]
        request = protocol.decode_frame(self.INSERT)
        envelope, lsn = protocol.run(request, engine.session("t"), deferred=True)
        assert envelope["ok"] and lsn == store.last_lsn == 1
        assert store.wal.stats()["fsyncs"] == fsyncs  # the ack is not yet owed
        # The transport's fsync fails: the built envelope must not go out.
        ack = protocol.failed(request, OSError("fsync failed"))
        assert ack["ok"] is False and ack["error"]["code"] == "internal"

    def test_reads_and_failures_defer_nothing(self, durable):
        engine, _store = durable
        protocol = Protocol(engine, (1, 2))
        for line in (b'{"op":"point","x":5,"y":5}', b'{"op":"delete","seg_id":999999}'):
            _envelope, lsn = protocol.run(protocol.decode_line(line), deferred=True)
            assert lsn is None


#: The paper's scale: county ``charles`` at ``scale 1.0``.
PAPER_SEGMENTS = 50_998
_SIDE_3PCT = 0.03 * 16384

#: ``(request, short)`` at :data:`PAPER_SEGMENTS`: short requests may run
#: where nothing can block (the async server's loop thread), the rest
#: need a thread of their own.
SHORT_TABLE = [
    ({"op": "ping"}, True),
    ({"op": "clock"}, True),
    ({"op": "point", "x": 100, "y": 100}, True),
    ({"op": "nearest", "x": 100, "y": 100}, True),  # k defaults to 1
    ({"op": "nearest", "x": 100, "y": 100, "k": 256}, True),
    ({"op": "nearest", "x": 100, "y": 100, "k": 257}, False),
    ({"op": "nearest", "x": 100, "y": 100, "k": 1000}, False),
    ({"op": "nearest", "x": 100, "y": 100, "k": "3"}, False),
    # 3 % of the extent a side: 0.0009 x 50 998 ~ 46 expected rows.
    ({"op": "window", "x1": 4000, "y1": 4000, "x2": 4000 + _SIDE_3PCT,
      "y2": 4000 + _SIDE_3PCT}, True),
    ({"op": "window", "x1": 4000 + _SIDE_3PCT, "y1": 4000 + _SIDE_3PCT,
      "x2": 4000, "y2": 4000}, True),  # corners in either order
    ({"op": "window", "x1": 0, "y1": 0, "x2": 16384, "y2": 16384}, False),
    ({"op": "window", "x1": -1e9, "y1": -1e9, "x2": 1e9, "y2": 1e9}, False),
    ({"op": "window", "x1": 0, "y1": 0, "x2": 10}, False),  # malformed
    ({"op": "window", "x1": "0", "y1": 0, "x2": 10, "y2": 10}, False),
    ({"op": "window", "x1": [0], "y1": {}, "x2": None, "y2": 10}, False),
    # Valid JSON, but no float holds it: the predicate must not raise.
    ({"op": "window", "x1": 0, "y1": 0, "x2": 10**400, "y2": 10}, False),
    ({"op": "window", "x1": -(10**400), "y1": 0, "x2": 10**400, "y2": 10**400},
     False),
    ({"op": "window", "x1": 0, "y1": 0, "x2": float("inf"), "y2": float("nan")},
     False),
    ({"op": "nearest", "x": 100, "y": 100, "k": 10**400}, False),
    ({"op": "nearest", "x": 100, "y": 100, "k": [1]}, False),
    ({"op": ["window"]}, False),
    ({"op": "insert", "x1": 5, "y1": 5, "x2": 30, "y2": 35}, False),
    ({"op": "delete", "seg_id": 1}, False),
    ({"op": "batch", "requests": [{"op": "point", "x": 1, "y": 1}]}, False),
    ({"op": "checkpoint"}, False),
    ({"op": "check"}, False),
    ({"op": "health"}, False),
    ({"op": "stats"}, False),
    ({"op": "metrics"}, False),
    ({"op": "explain", "query": {"op": "point", "x": 1, "y": 1}}, False),
    ({"op": "trace"}, False),
    ({"op": "profile", "seconds": 0.5}, False),
    ({"op": "bogus"}, False),
    ({}, False),
]


class TestShortReads:
    """Which requests can neither block nor run long: one pure predicate."""

    @pytest.mark.parametrize("raw,short", SHORT_TABLE)
    def test_short_table_at_paper_scale(self, raw, short):
        assert is_short_read(raw, PAPER_SEGMENTS, WORLD_SIZE) is short

    WHOLE_MAP = {"op": "window", "x1": 0, "y1": 0, "x2": 16384, "y2": 16384}

    def test_a_window_is_short_by_the_rows_it_expects(self):
        assert is_short_read(self.WHOLE_MAP, 256, WORLD_SIZE)
        assert not is_short_read(self.WHOLE_MAP, 257, WORLD_SIZE)
        # ... of *its* world: the same rectangle is 1/16 of one 4x the side.
        assert is_short_read(self.WHOLE_MAP, 16 * 256, 4 * WORLD_SIZE)

    def test_protocol_supplies_the_engine_facts(self):
        engine = _engine()
        protocol = Protocol(engine)
        segments = len(engine.ctx.segments)
        assert 0 < segments <= 256  # so all of this map is a short window
        assert protocol.is_short(Request(self.WHOLE_MAP))
        for raw, _short in SHORT_TABLE:
            assert protocol.is_short(Request(raw)) is is_short_read(
                raw, segments, WORLD_SIZE
            )

    def test_the_world_is_the_served_index_s_own(self):
        # PMR in the 1024 test world: all of it is every segment, not
        # the 1/256 of them the default 16K world would make it.
        engine = QueryEngine(build_index("PMR", lattice_map(n=16, pitch=60)))
        segments = len(engine.ctx.segments)
        assert segments > 256
        whole = {"op": "window", "x1": 0, "y1": 0, "x2": TEST_WORLD, "y2": TEST_WORLD}
        assert not Protocol(engine).is_short(Request(whole))
        assert is_short_read(whole, segments, WORLD_SIZE)

    @pytest.mark.parametrize("raw,_short", SHORT_TABLE)
    def test_nothing_is_short_on_a_router(self, raw, _short):
        # route() scatters over blocking sockets, whatever the op.
        assert Protocol(GateBackend()).is_short(Request(raw)) is False

    def test_an_undecodable_request_is_not_short(self):
        protocol = Protocol(_engine())
        assert protocol.is_short(protocol.decode_line(b"not json")) is False


class TestOnePolicyOnePlace:
    """The acceptance greps, as a test: the policy calls exist once."""

    SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

    def _files_calling(self, call):
        hits = set()
        for dirpath, _dirs, files in os.walk(self.SRC):
            for fname in files:
                if fname.endswith(".py"):
                    path = os.path.join(dirpath, fname)
                    with open(path, encoding="utf-8") as fh:
                        source = fh.read().replace(f"def {call}(", "")
                    if f"{call}(" in source:
                        hits.add(os.path.relpath(path, self.SRC))
        return hits

    @pytest.mark.parametrize(
        "call", ["error_envelope", "dtrace.set_incoming", "dtrace.take_outbound"]
    )
    def test_policy_calls_live_in_the_core_only(self, call):
        assert self._files_calling(call) == {os.path.join("service", "protocol.py")}

    def _lines(self, *roots):
        """``(relpath, line)`` of every text line under ``roots``."""
        top = os.path.join(self.SRC, "..", "..")
        for root in roots:
            for dirpath, _dirs, files in os.walk(os.path.join(top, root)):
                for fname in files:
                    if fname.endswith((".py", ".md")):
                        path = os.path.join(dirpath, fname)
                        with open(path, encoding="utf-8") as fh:
                            for line in fh:
                                yield os.path.relpath(path, top), line

    def test_one_read_request_type(self):
        """A read is one object from the wire to the traversal: one cache
        key, one validator of ``mode``, no second request model, and no
        mode on offer that nothing runs."""
        src = list(self._lines("src"))
        assert len([path for path, line in src if "def cache_key" in line]) == 1
        assert len([path for path, line in src if "mode must be" in line]) == 1
        gone = re.compile(
            "PointQuery|WindowQuery|NearestQuery|_spec_for|REQUEST_TYPES|SPEC_OPS"
        )
        assert [(path, line) for path, line in src if gone.search(line)] == []
        everywhere = src + list(self._lines("docs"))
        assert [(path, line) for path, line in everywhere if "clips" in line] == []

    def test_one_telemetry_model(self):
        """One tracer mode, one store of retained requests, one encoding
        of the trace context -- and no flag for a second of any."""
        from repro.__main__ import build_parser

        src = list(self._lines("src"))
        obs = [
            (path, line)
            for path, line in src
            if path.startswith(os.path.join("src", "repro", "obs"))
        ]
        assert obs
        assert [(path, line) for path, line in obs if "legacy" in line.lower()] == []
        gone = re.compile(
            "class SlowQueryLog|slow_log|FLAG_TRACE|to_trailer|from_trailer"
            '|split_trace_trailer|"features"'
        )
        assert [(path, line) for path, line in src if gone.search(line)] == []
        assert {os.path.basename(path) for path, line in obs if "deque(" in line} == {
            "trace.py"
        }
        assert not hasattr(TRACER, "enable") and not hasattr(TRACER, "disable")
        options = {
            option
            for action in build_parser()._subparsers._group_actions
            for sub in action.choices.values()
            for option in sub._option_string_actions
        }
        assert {"--trace-sample", "--slow-ms", "--trace-capacity"} <= options
        assert "--trace" not in options

    def test_an_index_is_declared_once_and_validated_once(self):
        """The structure owns its kind, parameters, navigational state
        and page inventory; the fsck is the only invariant checker."""
        from repro.__main__ import build_parser
        from repro.core import STRUCTURES

        src = [(path, line) for path, line in self._lines("src") if path.endswith(".py")]
        package = os.path.join("src", "repro", "")
        # One validator: check_invariants() only ever spells check_index().
        for path in sorted({path for path, _line in src}):
            with open(os.path.join(self.SRC, "..", "..", path), encoding="utf-8") as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.FunctionDef) and node.name == "check_invariants":
                        asserts = [n for n in ast.walk(node) if isinstance(n, ast.Assert)]
                        assert asserts == [], path
        # One declaration: nothing outside the owning packages reads
        # underscored state of an index, a B-tree, a table or the disk...
        owning = re.compile(r"core/(rtree|rplus|pmr)|btree/|storage/")
        reach_in = re.compile(r"(index|btree|table|disk)\._[a-z]")
        reaching = [
            (path, line)
            for path, line in src
            if reach_in.search(line) and not owning.match(path[len(package):])
        ]
        assert len(reaching) <= 10, reaching
        # ... re-derives its kind from its attributes ...
        guessing = re.compile(r"isinstance\(index|hasattr\(index|type\(index\) is")
        declared_to = {
            os.path.join(package, *parts)
            for parts in (
                ("analysis", "fsck.py"),
                ("analysis", "fsck_storage.py"),
                ("analysis", "fsck_pmr.py"),
                ("obs", "health.py"),
                ("service", "protocol.py"),
            )
        }
        assert declared_to <= {path for path, _line in src}
        assert [
            (path, line) for path, line in src if path in declared_to and guessing.search(line)
        ] == []
        # ... or keeps a second name -> class table, a second node class,
        # a second checker's helper, the blind page overwrite, a list of
        # the servable rows, a pluggable replacement policy, or what only
        # the numpy window kernel read.
        gone = re.compile(
            r"class RPlusNode|_KINDS|_discard_bootstrap|SHARD_STRUCTURES"
            r"|def _make_index|def _leaf_refs|def _inventories|def put\("
            r"|SERVABLE|_no_snapshot|ReplacementPolicy"
            r"|get_runs|stock_search|VectorBackend|HAVE_NUMPY"
        )
        layers = re.compile(r"(core|service|shard|analysis|storage)/")
        assert [
            (path, line)
            for path, line in src
            if layers.match(path[len(package):]) and gone.search(line)
        ] == []
        # The one table holds what the paper compares, plus the R*-tree's
        # base class; every row can be served.
        assert list(STRUCTURES) == ["R*", "R+", "PMR", "R"]
        assert [cls.name for cls in STRUCTURES.values()] == list(STRUCTURES)
        choices = [
            sub._option_string_actions["--structure"].choices
            for action in build_parser()._subparsers._group_actions
            for sub in action.choices.values()
            if "--structure" in sub._option_string_actions
        ]
        assert choices and all(c == list(STRUCTURES) for c in choices)

    def test_on_disk_state_is_read_once_and_judged_once(self, tmp_path, monkeypatch):
        """One reader per persisted artefact, and the fsck rules are the
        openers' only refusal conditions."""
        import repro.wal.store as store_module
        from repro.service import snapshot as snapshot_module
        from repro.wal.log import scan_log

        join = os.path.join
        # One reader: the log is scanned by the store reader (and by the
        # harness that injects the damage) and by nobody else ...
        assert self._files_calling("scan_log") == {
            join("wal", "store.py"),
            join("wal", "crashtest.py"),
        }
        # ... a snapshot's manifest and each JSON manifest are read by
        # the module that owns the file (``bench`` reads bench records).
        assert self._files_calling("snapshot_info") == set()
        assert self._files_calling("json.load") == {
            join("wal", "store.py"),
            join("shard", "manifest.py"),
            join("shard", "worker.py"),
            join("bench", "compare.py"),
        }
        src = [line for path, line in self._lines("src") if path.endswith(".py")]
        gone = re.compile(r"_scan_store|_last_lsn\(|_shard_state|ensure_contiguous")
        assert [line for line in src if gone.search(line)] == []
        assert len([line for line in src if "def _fsync_dir" in line]) == 1
        assert len([line for line in src if "os.replace(" in line]) == 2  # + log rotation

        # One judge: an opener raises nothing of its own; the refusal
        # beside it raises once, and what it raises carries the findings.
        def raises_in(module, name):
            with open(module.__file__, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            (func,) = [
                n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name
            ]
            return [ast.unparse(n) for n in ast.walk(func) if isinstance(n, ast.Raise)]

        assert raises_in(store_module, "open") == []
        assert raises_in(snapshot_module, "open_index") == []
        for module, refusal, error in (
            (store_module, "sound_store", "WalError"),
            (snapshot_module, "opened", "SnapshotError"),
        ):
            (only,) = raises_in(module, refusal)
            assert only.startswith(f"raise {error}(format_findings(findings"), only

        # And an open reads the log once, torn tail or not.
        root = str(tmp_path / "store")
        store = DurableStore.create(root, build_index("R*", lattice_map(n=4)))
        QueryEngine(store.index, store=store).delete(0)
        store.close()
        log = DurableStore.paths(root)["log"]
        os.truncate(log, os.path.getsize(log) - 3)
        scanned = []
        monkeypatch.setattr(
            store_module, "scan_log", lambda path: scanned.append(path) or scan_log(path)
        )
        store_module.open_durable(root).close()
        assert scanned == [log]

    def test_nothing_below_the_engine_imports_the_tracer(self):
        """The paper's counters are the only instrumentation below the
        service layer: no geometry, storage, B-tree, core or WAL module
        imports the tracer, the trace context or the profiler."""
        banned = {"repro.obs.trace", "repro.obs.dtrace", "repro.obs.profile"}
        offenders = []
        for package in ("geometry", "storage", "btree", "core", "wal"):
            for dirpath, _dirs, files in os.walk(os.path.join(self.SRC, package)):
                for fname in files:
                    if not fname.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, fname)
                    with open(path, encoding="utf-8") as fh:
                        tree = ast.parse(fh.read())
                    for node in ast.walk(tree):
                        if isinstance(node, ast.Import):
                            names = {alias.name for alias in node.names}
                        elif isinstance(node, ast.ImportFrom) and node.module:
                            names = {node.module} | {
                                f"{node.module}.{alias.name}" for alias in node.names
                            }
                        else:
                            continue
                        if names & banned:
                            offenders.append((os.path.relpath(path, self.SRC), node.lineno))
        assert offenders == []

    def test_core_is_sans_io(self):
        with open(protocol_module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"socket", "socketserver", "asyncio", "threading"}
