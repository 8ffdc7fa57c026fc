"""Distributed tracing, clock anchoring, and the sampling profiler.

Covers the cross-process observability stack end to end:

* :mod:`repro.obs.dtrace` -- the context's one wire form (the ``"tc"``
  field, on v1 lines and in v2 frame payloads), deterministic head
  sampling, thread-local handoff;
* :mod:`repro.obs.clock` -- the monotonic anchor: span durations stay
  non-negative under a wall-clock step (the S2 regression);
* tail-based retention in :class:`repro.obs.trace.Tracer` -- unsampled
  skeletons discard, errored and slow ones keep, and the slow-query log
  is a view over what was kept;
* v1 propagation through the threaded :class:`MapServer` and the
  stitched cross-shard tree through :class:`ShardRouter`, including the
  per-shard counter-parity oracle (span cost attribution equals engine
  counters to the unit);
* :mod:`repro.obs.profile` -- op attribution, collapsed stacks, merge.
"""

import threading
import time
from unittest import mock

import pytest

from repro.data import generate_county
from repro.metric_names import COUNTER_FIELDS
from repro.obs import dtrace
from repro.obs.clock import now_us, wall_now_us
from repro.obs.profile import (
    PROFILER,
    collapsed_text,
    merge_profiles,
)
from repro.aio import HEADER_BYTES, decode_header, decode_payload, encode_frame
from repro.obs.trace import TRACER, format_trace_tree
from repro.service import MapServer, Protocol, QueryEngine, send_request
from repro.service.api import parse_request
from repro.shard import LocalShardSet, ShardMap, ShardRouter, init_shard_set

from tests.conftest import build_index, lattice_map


@pytest.fixture()
def tracer():
    """The process-wide tracer, cleared on entry and disarmed on exit."""
    TRACER.clear()
    yield TRACER
    TRACER.disarm()
    TRACER.clear()


def _engine():
    return QueryEngine(build_index("R*", lattice_map(n=8)))


def _window(engine, **kw):
    req = {"op": "window", "x1": 0, "y1": 0, "x2": 400, "y2": 400}
    req.update(kw)
    return engine.execute(parse_request(req))


# ----------------------------------------------------------------------
# Context wire forms
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_ids_have_wire_width(self):
        ctx = dtrace.TraceContext.new_root(1.0)
        assert len(ctx.trace_id) == dtrace.TRACE_ID_HEX
        assert len(ctx.span_id) == dtrace.SPAN_ID_HEX
        int(ctx.trace_id, 16), int(ctx.span_id, 16)

    def test_v1_json_roundtrip(self):
        ctx = dtrace.TraceContext.new_root(1.0)
        back = dtrace.TraceContext.from_wire(ctx.to_wire())
        assert (back.trace_id, back.span_id, back.sampled) == (
            ctx.trace_id,
            ctx.span_id,
            ctx.sampled,
        )

    def test_v2_context_rides_in_the_payload(self):
        """v2 has no trailer: the context rides in the frame's payload as
        the same ``"tc"`` field, and the frame sets no flag bit for it."""
        ctx = dtrace.TraceContext(dtrace.new_trace_id(), dtrace.new_span_id(), True)
        frame = encode_frame(9, {"op": "ping", "tc": ctx.to_wire()})
        flags, length, _request_id = decode_header(frame[:HEADER_BYTES])
        assert flags == 0 and length == len(frame) - HEADER_BYTES
        back = dtrace.TraceContext.from_wire(
            decode_payload(frame[HEADER_BYTES:])["tc"]
        )
        assert (back.trace_id, back.span_id, back.sampled) == (
            ctx.trace_id,
            ctx.span_id,
            True,
        )

    @pytest.mark.parametrize(
        "raw",
        [
            None,
            "nope",
            {},
            {"t": "short", "s": "also"},
            {"t": "f" * 32, "s": "g" * 16},  # non-hex
            {"t": "a" * 32, "s": "b" * 16, "f": "x"},  # bad flags type
            {"t": "a" * 31, "s": "b" * 16},  # bad length
        ],
    )
    def test_malformed_contexts_degrade_to_none(self, raw):
        assert dtrace.TraceContext.from_wire(raw) is None

    def test_a_flagged_request_frame_is_bad_args(self):
        """What a client still sending the old 25-byte trailer gets: a
        structured ``bad_args`` for the flag bit it sets -- not a JSON
        parse error on the stray bytes, and never a crash."""
        protocol = Protocol(_engine(), (1, 2))
        for body in (b'{"op":"ping"}' + b"x" * 25, b'{"op":"ping"}', b"short", b""):
            envelope = protocol.run(protocol.decode_frame(body, 0x02))[0]
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "bad_args"
            assert "flag" in envelope["error"]["message"]

    def test_child_keeps_trace_id_and_flag(self):
        ctx = dtrace.TraceContext("a" * 32, "b" * 16, True)
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id
        assert child.sampled is True

    def test_head_sampling_is_deterministic_and_bounded(self):
        assert dtrace.head_sampled("f" * 32, 1.0) is True
        assert dtrace.head_sampled("0" * 32, 0.0) is False
        ids = [dtrace.new_trace_id() for _ in range(200)]
        half = [dtrace.head_sampled(t, 0.5) for t in ids]
        # Deterministic: the same id always decides the same way.
        assert half == [dtrace.head_sampled(t, 0.5) for t in ids]
        # Both verdicts occur at rate 0.5 over 200 draws.
        assert any(half) and not all(half)


# ----------------------------------------------------------------------
# Clock anchoring (S2)
# ----------------------------------------------------------------------
class TestClockAnchor:
    def test_now_us_is_monotonic(self):
        a = now_us()
        b = now_us()
        assert b >= a >= 0

    def test_wall_clock_step_cannot_produce_negative_durations(self, tracer):
        """The S2 regression: span timing must survive a wall step.

        Every timestamp derives from the monotonic anchor; a backwards
        ``time.time()`` jump mid-span must not reorder anything.
        """
        tracer.arm(1.0)
        engine = _engine()
        real_time = time.time
        with mock.patch("time.time", side_effect=lambda: real_time() - 3600.0):
            # wall_now_us ignores the patched wall clock entirely ...
            w1 = wall_now_us()
            w2 = wall_now_us()
            assert w2 >= w1
            _window(engine)
        traces = tracer.recent()
        assert traces

        def assert_nonnegative(rec):
            assert rec.get("dur_us", 0) >= 0, rec
            assert rec.get("start_us", 0) >= 0, rec
            for child in rec.get("spans", ()):
                assert_nonnegative(child)

        assert_nonnegative(traces[-1])

    def test_slow_log_uses_anchored_wall_clock(self, tracer):
        tracer.arm(0.0, slow_ms=0.0)
        engine = _engine()
        real_time = time.time
        with mock.patch("time.time", side_effect=lambda: real_time() - 3600.0):
            _window(engine)
        entry = engine.stats()["obs"]["slow_queries"]["entries"][-1]
        assert entry["op"] == "window"
        # Anchored: within a minute of true wall time, not an hour off.
        assert abs(entry["unix_time"] - real_time()) < 60.0


# ----------------------------------------------------------------------
# Tail-based retention
# ----------------------------------------------------------------------
class TestTailSampling:
    def test_full_sampling_records_ids_and_detail(self, tracer):
        """There is one mode: ``arm(1.0)`` records what the id-less
        record-everything mode recorded, and every root has ids."""
        tracer.arm(1.0)
        engine = _engine()
        _window(engine, use_cache=False)
        root = tracer.recent()[-1]
        assert root["name"] == "window"
        assert [span["name"] for span in root["spans"]] == ["traverse"]
        assert root["events"] == len(root["spans"][0]["spans"]) + 1
        assert root["dropped"] == 0 and "retained" not in root
        assert {"trace_id", "span_id", "sampled", "wall_us"} <= set(root)
        assert "parent_id" not in root  # rooted here, not under a caller
        assert not hasattr(tracer, "enable") and not hasattr(tracer, "disable")

    def test_sampled_root_carries_ids_and_detail(self, tracer):
        tracer.arm(1.0)
        engine = _engine()
        _window(engine)
        root = tracer.recent()[-1]
        assert len(root["trace_id"]) == dtrace.TRACE_ID_HEX
        assert len(root["span_id"]) == dtrace.SPAN_ID_HEX
        assert root["sampled"] is True
        assert root["spans"], "sampled trace must record child spans"

    def test_unsampled_skeleton_is_tail_discarded(self, tracer):
        tracer.arm(0.0)
        engine = _engine()
        before = tracer.stats()
        _window(engine)
        after = tracer.stats()
        assert after["finished"] == before["finished"] + 1
        assert after["tail_discarded"] == before["tail_discarded"] + 1
        assert after["buffered"] == before["buffered"]

    def test_unsampled_error_is_retained(self, tracer):
        tracer.arm(0.0)
        engine = _engine()
        before = tracer.stats()["buffered"]
        with pytest.raises(KeyError):
            engine.execute(parse_request({"op": "delete", "seg_id": 999999}))
        kept = tracer.recent()[-1]
        assert tracer.stats()["buffered"] == before + 1
        assert kept["sampled"] is False and "error" in kept
        # Unsampled error keeps the *skeleton*: no child detail.
        assert kept["spans"] == []

    def test_unsampled_slow_request_is_retained(self, tracer):
        tracer.arm(0.0, slow_ms=0.0)  # everything is "slow"
        engine = _engine()
        before = tracer.stats()["buffered"]
        _window(engine)
        kept = tracer.recent()[-1]
        assert tracer.stats()["buffered"] == before + 1
        assert kept["retained"] == "slow"

    def test_tail_discards_surface_in_prom_export(self, tracer):
        tracer.arm(0.0)
        engine = _engine()
        _window(engine)
        engine.sync_mirrored_counters()
        text = engine.registry.render_prom()
        assert "repro_trace_tail_discarded_total" in text
        assert "repro_trace_buffered" in text


# ----------------------------------------------------------------------
# v1 propagation through the threaded server
# ----------------------------------------------------------------------
class TestServerPropagation:
    @pytest.fixture()
    def server(self, tracer):
        tracer.arm(1.0)
        srv = MapServer(_engine())
        srv.start_background()
        yield srv
        srv.stop()

    def test_response_carries_fresh_trace_identity(self, server):
        resp = send_request(
            server.address, {"op": "window", "x1": 0, "y1": 0, "x2": 400, "y2": 400}
        )
        assert resp["ok"]
        tc = resp["tc"]
        assert len(tc["t"]) == dtrace.TRACE_ID_HEX
        assert tc["f"] & dtrace.FLAG_SAMPLED

    def test_incoming_context_parents_the_server_root(self, server):
        ctx = dtrace.TraceContext(dtrace.new_trace_id(), dtrace.new_span_id(), True)
        resp = send_request(
            server.address,
            {"op": "point", "x": 100, "y": 100, "tc": ctx.to_wire()},
        )
        assert resp["ok"]
        tc = resp["tc"]
        assert tc["t"] == ctx.trace_id
        # A remote sampled request ships its local subtree back.
        subtree = tc["span"]
        assert subtree["parent_id"] == ctx.span_id
        assert subtree["name"] == "point"

    def test_unsampled_context_suppresses_detail(self, server):
        ctx = dtrace.TraceContext(dtrace.new_trace_id(), dtrace.new_span_id(), False)
        resp = send_request(
            server.address,
            {"op": "point", "x": 100, "y": 100, "tc": ctx.to_wire()},
        )
        assert resp["ok"]
        tc = resp["tc"]
        assert tc["t"] == ctx.trace_id
        assert tc["f"] == 0
        assert "span" not in tc

    def test_malformed_context_degrades_to_untraced_identity(self, server):
        resp = send_request(
            server.address,
            {"op": "point", "x": 100, "y": 100, "tc": {"t": "bogus"}},
        )
        assert resp["ok"]  # the request itself must not fail
        # A fresh root was minted instead of inheriting the bad context.
        assert resp["tc"]["t"] != "bogus"

    def test_errored_request_is_retained_at_rate_zero(self, tracer):
        """``--slow-ms`` alone: rate 0, and the envelope of a request that
        failed still names a trace the same server resolves."""
        tracer.arm(0.0, slow_ms=10_000.0)
        srv = MapServer(_engine())
        srv.start_background()
        try:
            ok = send_request(srv.address, {"op": "point", "x": 100, "y": 100})
            failed = send_request(srv.address, {"op": "delete", "seg_id": 999999})
            fetched = {
                resp["tc"]["t"]: send_request(
                    srv.address, {"op": "trace", "trace_id": resp["tc"]["t"]}
                )["result"]["trace"]
                for resp in (ok, failed)
            }
            stats = send_request(srv.address, {"op": "stats"})["result"]
        finally:
            srv.stop()
        assert ok["ok"] and fetched[ok["tc"]["t"]] is None  # fast, clean: discarded
        assert failed["error"]["code"] == "unknown_seg"
        kept = fetched[failed["tc"]["t"]]
        assert kept["name"] == "delete" and "unknown segment id" in kept["error"]
        assert kept["sampled"] is False and kept["spans"] == []
        # Errored, not slow: retained, but no entry of the slow view.
        assert stats["obs"]["slow_queries"]["threshold_ms"] == 10_000.0
        assert stats["obs"]["slow_queries"]["entries"] == []

    def test_clock_op_reports_anchored_wall(self, server):
        resp = send_request(server.address, {"op": "clock"})
        assert resp["ok"]
        info = resp["result"]
        assert abs(info["wall_us"] / 1e6 - time.time()) < 60.0
        assert info["mono_us"] >= 0


# ----------------------------------------------------------------------
# Stitched cross-shard trees and the counter-parity oracle
# ----------------------------------------------------------------------
N_SHARDS = 3


@pytest.fixture(scope="module")
def shard_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("dtrace-shards")
    map_data = generate_county("cecil", scale=0.01)
    init_shard_set(
        root, "R*", map_data=map_data, n_shards=N_SHARDS, page_size=2048
    )
    return root


class TestStitchedTraces:
    @pytest.fixture()
    def routed(self, shard_root, tracer):
        tracer.arm(1.0)
        with LocalShardSet(shard_root) as shards:
            router = ShardRouter(shard_root)
            router.start_background()
            try:
                yield router, shards
            finally:
                router.stop()

    @staticmethod
    def _spans_named(rec, prefix):
        found = []

        def walk(r):
            if str(r.get("name", "")).startswith(prefix):
                found.append(r)
            for child in r.get("spans", ()):
                walk(child)

        walk(rec)
        return found

    def test_routed_query_returns_one_stitched_tree(self, routed):
        router, _shards = routed
        resp = send_request(
            router.address,
            {"op": "window", "x1": 0, "y1": 0, "x2": 10**6, "y2": 10**6},
        )
        assert resp["ok"]
        trace_id = resp["tc"]["t"]

        fetched = send_request(
            router.address, {"op": "trace", "trace_id": trace_id}
        )
        assert fetched["ok"]
        tree = fetched["result"]["trace"]
        assert tree is not None and tree["trace_id"] == trace_id
        assert tree["name"] == "window"
        # Router phases present ...
        assert self._spans_named(tree, "scatter")
        assert self._spans_named(tree, "merge")
        # ... and one wrapper per shard, each with the worker's subtree.
        wrappers = self._spans_named(tree, "shard:")
        assert len(wrappers) >= 2, "cross-shard query must span >= 2 workers"
        for wrapper in wrappers:
            assert wrapper["spans"], f"missing worker subtree in {wrapper['name']}"
            worker_root = wrapper["spans"][0]
            assert worker_root["trace_id"] == trace_id
            assert worker_root["name"] == "window"
        # The whole thing renders.
        rendered = format_trace_tree(tree)
        assert "scatter" in rendered and "shard:" in rendered

    def test_span_counters_match_engine_counters_to_the_unit(self, routed):
        """The acceptance oracle: per-shard span cost attribution equals
        the engine's own counters exactly."""
        router, shards = routed

        def shard_totals():
            stats = send_request(router.address, {"op": "stats"})["result"]
            return {
                sid: dict(entry["totals"])
                for sid, entry in stats["shards"].items()
            }

        before = shard_totals()
        resp = send_request(
            router.address,
            {
                "op": "window",
                "x1": 0,
                "y1": 0,
                "x2": 10**6,
                "y2": 10**6,
                "use_cache": False,
            },
        )
        assert resp["ok"]
        after = shard_totals()
        tree = send_request(
            router.address, {"op": "trace", "trace_id": resp["tc"]["t"]}
        )["result"]["trace"]
        wrappers = self._spans_named(tree, "shard:")
        assert wrappers
        for wrapper in wrappers:
            sid = wrapper["attrs"]["shard"]
            traverse = self._spans_named(wrapper, "traverse")
            assert traverse, f"no traverse span under {wrapper['name']}"
            attributed = traverse[0]["attrs"]["counters"]
            # The attribution covers every raw counter (plus reporting
            # aliases like disk_accesses); each must equal the engine's
            # own delta exactly.
            assert set(COUNTER_FIELDS) <= set(attributed)
            deltas = {
                name: after[sid][name] - before[sid][name]
                for name in attributed
            }
            assert attributed == deltas, f"span/counter mismatch on {sid}"

    def _batch_tree(self, router, shard_root, batch):
        """Send ``batch``; return (response, stitched tree, per-shard
        counter deltas the batch caused)."""

        def shard_totals():
            stats = send_request(router.address, {"op": "stats"})["result"]
            return {
                sid: dict(entry["totals"])
                for sid, entry in stats["shards"].items()
            }

        before = shard_totals()
        resp = send_request(router.address, batch)
        assert resp["ok"], resp
        after = shard_totals()
        tree = send_request(
            router.address, {"op": "trace", "trace_id": resp["tc"]["t"]}
        )["result"]["trace"]
        assert tree["name"] == "batch"
        deltas = {
            sid: {name: after[sid][name] - before[sid][name] for name in after[sid]}
            for sid in after
        }
        return resp, tree, deltas

    def _traverse_sums(self, wrapper):
        sums = dict.fromkeys(COUNTER_FIELDS, 0)
        for span in self._spans_named(wrapper, "traverse"):
            for name in COUNTER_FIELDS:
                sums[name] += span["attrs"]["counters"][name]
        return sums

    def test_read_only_batch_stitches_only_the_touched_shards(
        self, routed, shard_root
    ):
        """A clipped batch fans out once: one scatter span, a shard
        child per shard a member's geometry touches and no other, and
        each child's traverse spans bill exactly what that engine was
        charged."""
        router, _shards = routed
        seg = generate_county("cecil", scale=0.01).segments[0]
        member = {"op": "point", "x": seg.x1, "y": seg.y1}
        touched = sorted(
            s.shard_id for s in ShardMap.load(shard_root).route_point(seg.x1, seg.y1)
        )
        assert 1 <= len(touched) < N_SHARDS
        _resp, tree, deltas = self._batch_tree(
            router,
            shard_root,
            {"op": "batch", "use_cache": False, "requests": [member, member]},
        )
        assert len(self._spans_named(tree, "scatter")) == 1
        assert len(self._spans_named(tree, "merge")) == 1
        wrappers = self._spans_named(tree, "shard:")
        assert sorted(w["attrs"]["shard"] for w in wrappers) == touched
        for wrapper in wrappers:
            sid = wrapper["attrs"]["shard"]
            assert wrapper["spans"][0]["name"] == "batch"
            sums = self._traverse_sums(wrapper)
            assert sums == {name: deltas[sid][name] for name in COUNTER_FIELDS}
        for sid in set(deltas) - set(touched):
            assert not any(deltas[sid][name] for name in COUNTER_FIELDS)

    def test_mutating_batch_stitches_every_shard(self, routed, shard_root):
        """A batch with a mutation reaches every replicated table through
        the same single fan-out: one scatter span, a shard child per
        shard, the mutation's ``apply`` span under each."""
        router, _shards = routed
        seg = generate_county("cecil", scale=0.01).segments[0]
        resp, tree, deltas = self._batch_tree(
            router,
            shard_root,
            {
                "op": "batch",
                "use_cache": False,
                "requests": [
                    {"op": "point", "x": seg.x1, "y": seg.y1},
                    {"op": "insert", "x1": 3.0, "y1": 3.0, "x2": 6.0, "y2": 6.0},
                ],
            },
        )
        try:
            assert len(self._spans_named(tree, "scatter")) == 1
            assert len(self._spans_named(tree, "merge")) == 1
            wrappers = self._spans_named(tree, "shard:")
            assert sorted(w["attrs"]["shard"] for w in wrappers) == sorted(deltas)
            for wrapper in wrappers:
                sid = wrapper["attrs"]["shard"]
                assert wrapper["spans"][0]["name"] == "batch"
                assert len(self._spans_named(wrapper, "apply")) == 1
                # The read member's bill is exact; the rest of the
                # shard's movement is the insert's own.
                sums = self._traverse_sums(wrapper)
                assert all(
                    0 <= sums[name] <= deltas[sid][name] for name in COUNTER_FIELDS
                )
        finally:
            undo = send_request(
                router.address,
                {"op": "delete", "seg_id": resp["result"]["results"][1]},
            )
            assert undo["ok"], undo

    def test_shard_wrapper_timestamps_are_skew_shifted(self, routed):
        router, _shards = routed
        resp = send_request(
            router.address,
            {"op": "window", "x1": 0, "y1": 0, "x2": 10**6, "y2": 10**6},
        )
        tree = send_request(
            router.address, {"op": "trace", "trace_id": resp["tc"]["t"]}
        )["result"]["trace"]
        for wrapper in self._spans_named(tree, "shard:"):
            assert wrapper["start_us"] >= 0
            for sub in wrapper["spans"]:
                # The worker subtree lands inside the router's timeline,
                # not at a raw worker-relative (or wall-clock) offset.
                assert -1e6 < sub["start_us"] < tree["dur_us"] + 1e6

    def test_stats_entries_name_their_shard(self, shard_root, tracer):
        """One record answers "why was this slow, and in which process":
        at rate 0 the slow threshold alone retains the routed request,
        every slow entry names its shard and a trace id, and that id is
        the router's tree with one ``shard:<id>`` leg per touched shard."""
        tracer.arm(0.0, slow_ms=0.0)
        window = {"op": "window", "x1": 0, "y1": 0, "x2": 10**6, "y2": 10**6}
        with LocalShardSet(shard_root):
            router = ShardRouter(shard_root)
            router.start_background()
            try:
                resp = send_request(router.address, window)
                stats = send_request(router.address, {"op": "stats"})["result"]
                trees = {
                    entry["trace_id"]: send_request(
                        router.address,
                        {"op": "trace", "trace_id": entry["trace_id"]},
                    )["result"]
                    for shard_stats in stats["shards"].values()
                    for entry in shard_stats["obs"]["slow_queries"]["entries"]
                }
            finally:
                router.stop()
        assert resp["ok"] and resp["tc"]["f"] == 0  # unsampled, and yet:
        labelled = [
            entry
            for shard_stats in stats["shards"].values()
            for entry in shard_stats["obs"]["slow_queries"]["entries"]
        ]
        assert labelled, "the slow view should list roots at threshold 0"
        assert all("shard" in entry for entry in labelled)
        assert {e["shard"] for e in labelled} <= set(stats["shards"])
        assert all(trees[entry["trace_id"]]["trace"] for entry in labelled)
        found = trees[resp["tc"]["t"]]
        tree = found["trace"]
        assert found["source"] == "router"
        assert tree["name"] == "window" and "parent_id" not in tree
        assert tree["sampled"] is False and tree["retained"] == "slow"
        legs = self._spans_named(tree, "shard:")
        assert sorted(leg["attrs"]["shard"] for leg in legs) == sorted(
            stats["shards"]
        )
        assert all(leg["dur_us"] > 0 and leg["spans"] == [] for leg in legs)
        assert tree["spans"] == legs  # a skeleton: the legs and nothing else


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_run_collects_stacks(self):
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(range(500))

        worker = threading.Thread(target=busy, name="busy-worker", daemon=True)
        worker.start()
        try:
            profile = PROFILER.run(seconds=0.2, hz=200)
        finally:
            stop.set()
            worker.join()
        assert profile["samples"] > 0
        assert profile["stacks"]
        assert any("busy" in key for key in profile["stacks"])
        assert not PROFILER.enabled

    def test_op_attribution_prefixes_stacks(self):
        stop = threading.Event()

        def tagged():
            # Re-tag every iteration, the way the engine tags each
            # request: run() wipes the map on entry, so only tags set
            # while the sampler is live land in the profile.
            while not stop.is_set():
                PROFILER.set_op("window")
                try:
                    sum(range(500))
                finally:
                    PROFILER.clear_op()

        worker = threading.Thread(target=tagged, daemon=True)
        worker.start()
        try:
            profile = PROFILER.run(seconds=0.3, hz=200)
        finally:
            stop.set()
            worker.join()
        assert profile["samples"] > 0
        assert any(key.startswith("op:window;") for key in profile["stacks"])

    def test_engine_sets_op_for_profiler(self, tracer):
        engine = _engine()
        captured = []
        PROFILER.enabled = True  # pretend a run is active
        try:
            original = PROFILER.set_op

            def spy(op):
                captured.append(op)
                original(op)

            with mock.patch.object(PROFILER, "set_op", side_effect=spy):
                _window(engine)
        finally:
            PROFILER.enabled = False
            PROFILER.clear_op()
        assert "window" in captured

    def test_clamps_protect_the_server(self):
        profile = PROFILER.run(seconds=0.05, hz=10**9)
        assert profile["hz"] <= 997

    @pytest.mark.parametrize(
        "seconds, hz",
        [
            (1e30, 97),
            (float("inf"), 97),
            (float("nan"), 97),
            (float("nan"), float("inf")),
        ],
    )
    def test_routed_profile_clamps_before_it_fans_out(
        self, shard_root, monkeypatch, seconds, hz
    ):
        """Python's json reads 1e30, Infinity and NaN; none may reach a
        shard leg's socket deadline. Over the wire, with the cap lowered
        so that the clamped window is short."""
        monkeypatch.setattr("repro.obs.profile.MAX_SECONDS", 0.2)
        with LocalShardSet(shard_root):
            router = ShardRouter(shard_root)
            router.start_background()
            try:
                resp = send_request(
                    router.address, {"op": "profile", "seconds": seconds, "hz": hz}
                )
            finally:
                router.stop()
        assert resp["ok"], resp
        profile = resp["result"]
        assert profile["unavailable"] == []
        assert profile["parts"] == ["router"] + [
            f"shard:s{i}" for i in range(N_SHARDS)
        ]
        assert 0.05 <= profile["seconds"] <= 0.2
        assert 1 <= profile["hz"] <= 997

    def test_merge_reroots_under_labels(self):
        parts = {
            "router": {
                "seconds": 0.2,
                "hz": 97,
                "samples": 3,
                "stacks": {"a;b": 3},
            },
            "shard:s0": {
                "seconds": 0.2,
                "hz": 97,
                "samples": 2,
                "stacks": {"a;b": 1, "c": 1},
            },
        }
        merged = merge_profiles(parts)
        assert merged["samples"] == 5
        assert merged["stacks"]["router;a;b"] == 3
        assert merged["stacks"]["shard:s0;c"] == 1
        assert merged["parts"] == ["router", "shard:s0"]
        text = collapsed_text(merged)
        assert text.splitlines()[0] == "router;a;b 3"


# ----------------------------------------------------------------------
# Thread-local handoff hygiene
# ----------------------------------------------------------------------
class TestHandoff:
    def test_set_incoming_clears_stale_outbound(self):
        dtrace.set_outbound({"t": "stale"})
        dtrace.set_incoming(None)
        assert dtrace.take_outbound() is None

    def test_take_is_destructive(self):
        ctx = dtrace.TraceContext.new_root(1.0)
        dtrace.set_incoming(ctx)
        assert dtrace.take_incoming() is ctx
        assert dtrace.take_incoming() is None
