"""Golden wire-protocol tests: every op, success and error envelope,
typed-request parsing, and trace/metrics observability under load."""

import json
import random
import threading

import pytest

from benchmarks.e2e.oracle import Oracle
from repro.core.queries import QuerySpec, execute_spec
from repro.errors import NotDurableError, ProtocolError
from repro.geometry import Point, Rect
from repro.obs import TRACER, MetricsRegistry
from repro.service import MapServer, Protocol, QueryEngine, send_request
from repro.wal.store import DurableStore
from repro.service.api import (
    PROTOCOL_VERSION,
    parse_batch_item,
    parse_request,
)

from tests.conftest import build_index, lattice_map


@pytest.fixture()
def engine():
    eng = QueryEngine(
        build_index("R*", lattice_map(n=8)), registry=MetricsRegistry()
    )
    yield eng


@pytest.fixture()
def server(engine):
    srv = MapServer(engine)
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


class TestTypedRequests:
    def test_point_cache_key_matches_legacy(self):
        q = parse_request({"op": "point", "x": 1, "y": 2})
        assert q.cache_key() == ("point", 1.0, 2.0)

    def test_window_canonicalizes_corners(self):
        q = parse_request({"op": "window", "x1": 10, "y1": 20, "x2": 0, "y2": 5})
        assert q.to_rect() == (0.0, 5.0, 10.0, 20.0)
        assert q.describe() == {
            "x1": 0.0, "y1": 5.0, "x2": 10.0, "y2": 20.0, "mode": "intersects"
        }
        assert q.cache_key() == ("window", 0.0, 5.0, 10.0, 20.0, "intersects")
        # The same window given either way round shares one cache entry.
        assert QuerySpec.window(Rect(0, 5, 10, 20)).cache_key() == q.cache_key()

    def test_nearest_cache_key(self):
        q = parse_request({"op": "nearest", "x": 3, "y": 4, "k": 2})
        assert q.cache_key() == ("nearest", 3.0, 4.0, 2)
        assert q.cache_key() == QuerySpec.nearest(Point(3, 4), 2).cache_key()

    def test_validation_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "point", "x": "a", "y": 0})
        with pytest.raises(ProtocolError):
            parse_request(
                {"op": "window", "x1": 0, "y1": 0, "x2": 1, "y2": 1, "mode": "overlaps"}
            )
        with pytest.raises(ProtocolError):
            parse_request({"op": "nearest", "x": 0, "y": 0, "k": 0})
        with pytest.raises(ProtocolError):
            parse_request({"op": "nearest", "x": 0, "y": 0, "k": True})

    def test_parse_request_every_op(self):
        cases = [
            ({"op": "point", "x": 1, "y": 2}, "point"),
            ({"op": "window", "x1": 0, "y1": 0, "x2": 9, "y2": 9}, "window"),
            ({"op": "nearest", "x": 1, "y": 2, "k": 3}, "nearest"),
            ({"op": "batch", "requests": []}, "batch"),
            ({"op": "insert", "x1": 0, "y1": 0, "x2": 1, "y2": 1}, "insert"),
            ({"op": "delete", "seg_id": 4}, "delete"),
            ({"op": "checkpoint"}, "checkpoint"),
            ({"op": "stats"}, "stats"),
            ({"op": "check"}, "check"),
            ({"op": "trace", "n": 2}, "trace"),
            ({"op": "metrics", "format": "prom"}, "metrics"),
        ]
        for raw, op in cases:
            assert parse_request(raw).op == op

    def test_parse_request_unknown_op_code(self):
        with pytest.raises(ProtocolError) as exc_info:
            parse_request({"op": "bogus"})
        assert exc_info.value.code == "unknown_op"

    def test_parse_batch_item_restricts_ops(self):
        with pytest.raises(ProtocolError, match="batch cannot execute"):
            parse_batch_item({"op": "stats"})
        item = parse_batch_item({"op": "point", "x": 1, "y": 2, "use_cache": False})
        assert item.use_cache is False

    def test_execute_rejects_untyped_values(self, engine):
        with pytest.raises(ProtocolError, match="not a typed request"):
            engine.execute({"op": "point", "x": 1, "y": 2})


class TestGoldenProtocol:
    """One success and (where reachable) one failure per wire op."""

    def test_every_op_succeeds(self, server):
        addr = server.address
        ok_cases = [
            {"op": "ping"},
            {"op": "point", "x": 100, "y": 100},
            {"op": "window", "x1": 0, "y1": 0, "x2": 300, "y2": 300},
            {"op": "nearest", "x": 250, "y": 250, "k": 2},
            {
                "op": "batch",
                "requests": [
                    {"op": "point", "x": 100, "y": 100},
                    {"op": "window", "x1": 0, "y1": 0, "x2": 150, "y2": 150},
                ],
            },
            {"op": "insert", "x1": 3, "y1": 3, "x2": 8, "y2": 8},
            {"op": "delete", "seg_id": 0},
            {"op": "stats"},
            {"op": "check"},
            {"op": "trace"},
            {"op": "metrics"},
            {"op": "metrics", "format": "prom"},
        ]
        for request in ok_cases:
            response = send_request(addr, request)
            assert response["ok"] is True, (request, response)
            assert "result" in response

    def test_error_envelopes(self, server):
        addr = server.address
        error_cases = [
            ({"op": "bogus"}, "unknown_op"),
            ({"op": "point", "x": 1}, "bad_args"),
            ({"op": "point", "x": "a", "y": 2}, "bad_args"),
            ({"op": "window", "x1": 0, "y1": 0, "x2": 1, "y2": 1,
              "mode": "overlaps"}, "bad_args"),
            ({"op": "nearest", "x": 1, "y": 2, "k": 0}, "bad_args"),
            ({"op": "batch", "requests": [{"op": "stats"}]}, "bad_args"),
            ({"op": "batch", "requests": "nope"}, "bad_args"),
            ({"op": "insert", "x1": 0, "y1": 0, "x2": 1}, "bad_args"),
            ({"op": "delete", "seg_id": 10**9}, "unknown_seg"),
            ({"op": "delete", "seg_id": "x"}, "bad_args"),
            ({"op": "checkpoint"}, "not_durable"),
            ({"op": "trace", "n": 0}, "bad_args"),
            ({"op": "metrics", "format": "xml"}, "bad_args"),
            ({"op": "ping", "v": 99}, "bad_args"),
            # A JSON integer no float holds, on every numeric field.
            ({"op": "point", "x": 10**400, "y": 2}, "bad_args"),
            ({"op": "window", "x1": 10**400, "y1": 0, "x2": 1, "y2": 1},
             "bad_args"),
            ({"op": "nearest", "x": 1, "y": -(10**400)}, "bad_args"),
            ({"op": "insert", "x1": 0, "y1": 0, "x2": 10**400, "y2": 1},
             "bad_args"),
            ({"op": "batch",
              "requests": [{"op": "point", "x": 1, "y": 10**400}]}, "bad_args"),
            ({"op": "explain",
              "query": {"op": "point", "x": 10**400, "y": 1}}, "bad_args"),
        ]
        for request, code in error_cases:
            response = send_request(addr, request)
            assert response["ok"] is False, (request, response)
            error = response["error"]
            assert error["code"] == code, (request, error)
            assert error["message"]
            assert error["type"]

    def test_version_echo(self, server):
        addr = server.address
        response = send_request(addr, {"op": "ping", "v": PROTOCOL_VERSION})
        assert response == {"ok": True, "result": "pong", "v": PROTOCOL_VERSION}
        # Unpinned requests get no version key, as before this protocol rev.
        assert "v" not in send_request(addr, {"op": "ping"})
        # A pinned request that fails still echoes the accepted version.
        response = send_request(addr, {"op": "bogus", "v": PROTOCOL_VERSION})
        assert response["v"] == PROTOCOL_VERSION
        assert response["error"]["code"] == "unknown_op"

    def test_not_durable_is_runtime_and_protocol_error(self, engine):
        # The compat contract: existing `except RuntimeError` call sites
        # keep working, while the server maps the code in one place.
        with pytest.raises(RuntimeError, match="durable"):
            engine.checkpoint()
        with pytest.raises(NotDurableError) as exc_info:
            engine.checkpoint()
        assert exc_info.value.code == "not_durable"


WINDOW_300 = {"op": "window", "x1": 0, "y1": 0, "x2": 300, "y2": 300}


@pytest.mark.parametrize("kind", ["R*", "R+", "PMR"])
class TestTraceShapes:
    def test_window_trace_spans(self, kind):
        engine = QueryEngine(
            build_index(kind, lattice_map(n=8)), registry=MetricsRegistry()
        )
        session = engine.session("traced")
        TRACER.arm(1.0)
        try:
            TRACER.clear()
            engine.cold_start()
            before = session.counters.snapshot()
            engine.execute(
                parse_request({**WINDOW_300, "use_cache": False}), session
            )
            delta = session.counters.since(before)
            engine.execute(parse_request(WINDOW_300))
            traces = TRACER.recent()
        finally:
            TRACER.disarm()
        assert len(traces) == 2
        trace = traces[0]
        assert trace["name"] == "window"
        assert trace["attrs"]["mode"] == "intersects"
        # What `--trace` showed, plus the ids every root now carries.
        assert {"trace_id", "span_id", "sampled", "wall_us"} <= set(trace)
        assert trace["sampled"] is True and "parent_id" not in trace
        (traverse,) = trace["spans"]
        assert traverse["name"] == "traverse"
        # The page traffic is the paper's counters on the span that was
        # charged them, equal to what the session was billed -- not a
        # child record per access.
        assert traverse["spans"] == []
        assert traverse["attrs"]["counters"] == delta.as_dict()
        # A cold traversal must fault pages and read the segment table.
        assert delta.disk_reads > 0 and delta.segment_comps > 0
        assert "latch_wait_us" not in traverse["attrs"]  # nobody held it

    def test_cache_hit_event(self, kind):
        engine = QueryEngine(
            build_index(kind, lattice_map(n=6)), registry=MetricsRegistry()
        )
        TRACER.arm(1.0)
        try:
            TRACER.clear()
            engine.execute(QuerySpec.point(Point(100, 100)))
            engine.execute(QuerySpec.point(Point(100, 100)))
            traces = TRACER.recent()
        finally:
            TRACER.disarm()
        first, second = traces[-2:]
        assert first["attrs"]["cache"] == "miss"
        assert [s["name"] for s in first["spans"]] == ["traverse"]
        assert second["attrs"]["cache"] == "hit"
        assert second["spans"] == []  # no traversal on a hit


class TestDurableTraceShapes:
    def test_insert_trace_carries_counters_lsn_and_fsync(self, tmp_path):
        """A sampled durable insert says, on the spans the engine opens,
        what the storage and WAL layers did: the counter deltas its
        session was billed, the LSN it logged and whether its commit
        fsynced."""
        index = build_index("R*", lattice_map(n=6))
        store = DurableStore.create(str(tmp_path / "store"), index, group_commit=1)
        engine = QueryEngine(index, store=store, registry=MetricsRegistry())
        session = engine.session("writer")
        TRACER.arm(1.0)
        try:
            TRACER.clear()
            before = session.counters.snapshot()
            engine.execute(
                parse_request({"op": "insert", "x1": 5, "y1": 5, "x2": 9, "y2": 7}),
                session,
            )
            delta = session.counters.since(before)
            (trace,) = TRACER.recent()
        finally:
            TRACER.disarm()
            TRACER.clear()
            store.close()
        assert trace["name"] == "insert"
        apply, commit = trace["spans"]
        assert apply["name"] == "apply" and commit["name"] == "commit"
        assert apply["attrs"]["counters"] == delta.as_dict()
        assert delta.bbox_comps > 0  # the insert descended the tree
        assert apply["attrs"]["lsn"] == store.last_lsn == 1
        assert commit["attrs"] == {"fsync": True}  # group_commit=1: inline
        assert apply["spans"] == commit["spans"] == []


class TestObservedEngine:
    def test_histogram_total_matches_query_total(self, engine):
        engine.execute(QuerySpec.point(Point(100, 100)))
        engine.execute(QuerySpec.window(Rect(0, 0, 200, 200)))
        engine.execute(QuerySpec.window(Rect(0, 0, 200, 200)))
        engine.execute(QuerySpec.nearest(Point(300, 300), k=1))
        reg = engine.registry
        for op, expected in (("point", 1), ("window", 2), ("nearest", 1)):
            hist = reg.histogram("repro_op_latency_seconds", op=op)
            assert hist.raw()[1] == expected
            counter = reg.counter("repro_queries_total", op=op, status="ok")
            assert counter.value == expected

    def test_errors_counted_with_status_label(self, engine):
        with pytest.raises(KeyError):
            engine.delete(10**9)
        reg = engine.registry
        assert reg.counter(
            "repro_queries_total", op="delete", status="error"
        ).value == 1
        assert reg.histogram(
            "repro_op_latency_seconds", op="delete"
        ).raw()[1] == 1

    def test_batch_members_become_child_spans(self, engine):
        TRACER.arm(1.0)
        try:
            TRACER.clear()
            engine.execute(
                parse_request(
                    {
                        "op": "batch",
                        "requests": [
                            {"op": "point", "x": 100, "y": 100},
                            {"op": "window", "x1": 0, "y1": 0,
                             "x2": 150, "y2": 150},
                        ],
                    }
                )
            )
            traces = TRACER.recent()
        finally:
            TRACER.disarm()
        batch_traces = [t for t in traces if t["name"] == "batch"]
        assert len(batch_traces) == 1  # members nested, not separate traces
        member_names = sorted(s["name"] for s in batch_traces[0]["spans"])
        assert member_names == ["point", "window"]

    def test_slow_query_log_via_engine(self):
        engine = QueryEngine(
            build_index("R*", lattice_map(n=6)), registry=MetricsRegistry()
        )
        TRACER.clear()
        TRACER.arm(0.0, slow_ms=0.0)  # everything is slow, nothing is sampled
        try:
            engine.execute(QuerySpec.point(Point(50, 50)))
            slow = engine.stats()["obs"]["slow_queries"]
        finally:
            TRACER.disarm()
            TRACER.clear()
        assert slow["threshold_ms"] == 0.0 and slow["recorded"] >= 1
        (entry,) = slow["entries"]
        assert entry["op"] == "point" and entry["attrs"] == {"x": 50.0, "y": 50.0}
        assert len(entry["trace_id"]) == 32
        assert engine.registry.counter("repro_slow_queries_total").value >= 1
        with pytest.raises(TypeError):
            QueryEngine(engine.index, slow_ms=0.0)  # the tracer's setting now

    def test_concurrent_tracing_keeps_counters_consistent(self):
        """K threads tracing concurrently: counters stay attributable and
        the per-op histogram totals equal the queries issued."""
        engine = QueryEngine(
            build_index("R*", lattice_map(n=8)), registry=MetricsRegistry()
        )
        threads_n, per_thread = 4, 25
        TRACER.arm(1.0)
        errors = []

        def worker(tag):
            session = engine.session(f"worker-{tag}")
            try:
                for i in range(per_thread):
                    engine.execute(
                        parse_request(
                            {
                                "op": "point",
                                "x": 100 * (1 + (i + tag) % 8),
                                "y": 100 * (1 + (i * 3 + tag) % 8),
                                "use_cache": False,
                            }
                        ),
                        session=session,
                    )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        try:
            workers = [
                threading.Thread(target=worker, args=(t,))
                for t in range(threads_n)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        finally:
            TRACER.disarm()
        assert errors == []
        assert engine.counters_consistent()
        issued = threads_n * per_thread
        hist = engine.registry.histogram("repro_op_latency_seconds", op="point")
        assert hist.raw()[1] == issued
        assert engine.registry.counter(
            "repro_queries_total", op="point", status="ok"
        ).value == issued
        assert engine.registry.counter("repro_traces_total").value == issued


def _seeded_reads(rng, segments, n=24):
    """Wire reads of all three ops: data-correlated points, windows and
    probes anywhere over the lattice; integer and float coordinates."""
    for i in range(n):
        x, y = rng.randrange(0, 900), rng.uniform(0, 900)
        if i % 3 == 0:
            seg = segments[rng.randrange(len(segments))]
            yield {"op": "point", "x": seg.x1, "y": seg.y1}
        elif i % 3 == 1:
            yield {"op": "window", "x1": x, "y1": y, "x2": x + 180, "y2": y + 140.5}
        else:
            yield {"op": "nearest", "x": x, "y": y, "k": rng.randrange(1, 5)}


def _python_spelling(raw):
    """The same query as a Python caller writes it -- a window by its
    *other* two corners, which must still be the same query."""
    if raw["op"] == "window":
        return QuerySpec.window(Rect(raw["x2"], raw["y2"], raw["x1"], raw["y1"]))
    p = Point(raw["x"], raw["y"])
    return QuerySpec.point(p) if raw["op"] == "point" else QuerySpec.nearest(p, raw["k"])


@pytest.mark.parametrize("kind", ["R*", "R+", "PMR"])
class TestOneRequestObject:
    """What one request object from the wire to the traversal buys."""

    def test_every_path_runs_the_same_query(self, kind):
        segments = lattice_map(n=8)
        scan = Oracle(segments)
        bare = build_index(kind, segments)
        engine = QueryEngine(
            build_index(kind, segments), registry=MetricsRegistry()
        )
        for i, raw in enumerate(_seeded_reads(random.Random(1992), segments)):
            # Alternate which spelling fills the cache and which finds it.
            first, second = parse_request(raw), _python_spelling(raw)
            if i % 2:
                first, second = second, first
            served = engine.execute(first)
            assert scan.check_response(raw, {"ok": True, "result": served}) is None
            assert execute_spec(bare, first) == served
            hits = engine.cache.hits
            assert engine.execute(second) == served
            assert engine.cache.hits == hits + 1, (raw, first, second)
        assert engine.counters_consistent()

    def test_the_queries_with_no_wire_op_are_served_like_the_rest(self, kind):
        """Queries 2 and 4 and ``incident``: ``execute`` runs any spec."""
        segments = lattice_map(n=8)
        bare = build_index(kind, segments)
        engine = QueryEngine(
            build_index(kind, segments), registry=MetricsRegistry()
        )
        session = engine.session("paper")
        specs = [
            QuerySpec.other_endpoint(segments[5].start, 5),
            QuerySpec.polygon(Point(150, 150)),
            QuerySpec.incident(segments[5].start),
        ]
        for spec in specs:
            before = session.counters.snapshot()
            served = engine.execute(spec, session=session)
            assert served == execute_spec(bare, spec)
            assert session.counters.since(before).segment_comps > 0
            hits = engine.cache.hits
            assert engine.execute(spec, session=session) == served
            assert engine.cache.hits == hits + 1
            assert engine.registry.counter(
                "repro_queries_total", op=spec.op, status="ok"
            ).value == 2
        assert session.queries == 2 * len(specs)
        assert session.cache_hits == len(specs)
        assert engine.counters_consistent()

    def test_a_standalone_read_honours_use_cache(self, kind):
        engine = QueryEngine(
            build_index(kind, lattice_map(n=6)), registry=MetricsRegistry()
        )
        protocol = Protocol(engine)
        raw = {"op": "point", "x": 100, "y": 100}
        for payload, moved in (({**raw, "use_cache": False}, 0), (raw, 1)):
            hits = engine.cache.hits
            first = protocol.respond_line(json.dumps(payload))
            assert first["ok"] and protocol.respond_line(json.dumps(payload)) == first
            assert engine.cache.hits - hits == moved, payload
