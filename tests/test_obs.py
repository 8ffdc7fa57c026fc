"""The observability layer: tracer, histograms, registry, prom round-trip."""

import threading

import pytest

from repro.obs import (
    LatencyHistogram,
    MetricsRegistry,
    Tracer,
    parse_prom_text,
)
from repro.obs.metrics import BUCKET_BOUNDS


class TestTracer:
    def test_disabled_tracer_is_inert(self):
        tracer = Tracer()
        assert tracer.start_trace("point") is None
        with tracer.span("traverse") as span:
            span.set_error("ignored")
            span.set_attr("counters", {})
        tracer.annotate(cache="hit")
        assert not span.recording
        assert tracer.recent() == []
        assert tracer.stats()["started"] == 0

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")  # no allocation

    def test_span_tree_shape(self):
        tracer = Tracer()
        tracer.arm(1.0)
        root = tracer.start_trace("window", x1=0.0)
        tracer.annotate(cache="miss")
        with tracer.span("traverse") as span:
            span.set_attr("counters", {"disk_reads": 3})
            with tracer.span("inner", level=1):
                tracer.annotate(visits=2)
        tracer.finish_trace(root)
        (trace,) = tracer.recent()
        assert trace["name"] == "window"
        assert trace["attrs"] == {"x1": 0.0, "cache": "miss"}
        assert trace["dur_us"] >= 0.0
        (traverse,) = trace["spans"]
        assert traverse["name"] == "traverse"
        assert traverse["attrs"] == {"counters": {"disk_reads": 3}}
        (inner,) = traverse["spans"]
        assert inner["name"] == "inner"
        assert inner["attrs"] == {"level": 1, "visits": 2}
        assert trace["events"] == 2
        assert trace["dropped"] == 0

    def test_annotate_leaves_a_skeleton_alone(self):
        """An unsampled root keeps the request's own attributes: what the
        slow-query log shows is what the client sent."""
        tracer = Tracer()
        tracer.arm(0.0, slow_ms=0.0)
        root = tracer.start_trace("point", x=1.0)
        tracer.annotate(cache="hit")
        tracer.finish_trace(root)
        (trace,) = tracer.recent()
        assert trace["sampled"] is False and trace["attrs"] == {"x": 1.0}

    def test_max_events_caps_a_trace(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.MAX_EVENTS", 4)
        tracer = Tracer()
        tracer.arm(1.0)
        root = tracer.start_trace("window")
        for i in range(10):
            with tracer.span("member", i=i):
                pass
        tracer.finish_trace(root)
        (trace,) = tracer.recent()
        assert len(trace["spans"]) == 4
        assert trace["events"] == 10
        assert trace["dropped"] == 6

    def test_ring_buffer_bounds_finished_traces(self):
        tracer = Tracer()
        tracer.arm(1.0, capacity=3)
        for i in range(7):
            root = tracer.start_trace(f"op{i}")
            tracer.finish_trace(root)
        names = [t["name"] for t in tracer.recent()]
        assert names == ["op4", "op5", "op6"]
        assert tracer.stats()["finished"] == 7

    def test_error_recorded_on_root(self):
        tracer = Tracer()
        tracer.arm(1.0)
        root = tracer.start_trace("delete")
        tracer.finish_trace(root, error="KeyError: unknown segment id 9")
        (trace,) = tracer.recent()
        assert "unknown segment id" in trace["error"]

    def test_active_tracks_thread_local_stack(self):
        tracer = Tracer()
        tracer.arm(1.0)
        assert not tracer.active()
        root = tracer.start_trace("batch")
        assert tracer.active()
        seen_in_thread = []
        t = threading.Thread(target=lambda: seen_in_thread.append(tracer.active()))
        t.start()
        t.join()
        assert seen_in_thread == [False]  # another thread has its own stack
        tracer.finish_trace(root)
        assert not tracer.active()

    def test_threads_build_separate_trees(self):
        tracer = Tracer()
        tracer.arm(1.0)

        def worker(tag):
            for _ in range(10):
                root = tracer.start_trace(tag)
                with tracer.span("traverse"):
                    with tracer.span("apply"):
                        pass
                tracer.finish_trace(root)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        traces = tracer.recent()
        assert len(traces) == 40
        # Every trace has exactly the structure its own thread built.
        for trace in traces:
            assert [s["name"] for s in trace["spans"]] == ["traverse"]
            assert trace["events"] == 2

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            Tracer().arm(1.0, capacity=0)


class TestLatencyHistogram:
    def test_bucket_index_is_log2_of_micros(self):
        h = LatencyHistogram("h")
        assert h._bucket_index(0.0) == 0
        assert h._bucket_index(1e-6) == 0
        assert h._bucket_index(1.5e-6) == 1
        assert h._bucket_index(3e-6) == 2
        assert h._bucket_index(BUCKET_BOUNDS[-1]) == len(BUCKET_BOUNDS) - 1
        assert h._bucket_index(1e9) == len(BUCKET_BOUNDS)  # overflow slot

    def test_observe_accumulates(self):
        h = LatencyHistogram("h")
        for v in (1e-6, 2e-6, 1e-3, 2.0):
            h.observe(v)
        counts, total, total_sum = h.raw()
        assert total == 4
        assert sum(counts) == 4
        assert total_sum == pytest.approx(1e-6 + 2e-6 + 1e-3 + 2.0)

    def test_percentile_returns_bucket_bound(self):
        h = LatencyHistogram("h")
        for _ in range(99):
            h.observe(3e-6)  # falls in the (2us, 4us] bucket
        h.observe(1.0)
        assert h.percentile(0.5) == 4e-6
        assert h.percentile(1.0) >= 1.0
        assert h.percentile(0.0) == 4e-6  # rank clamps to the first sample

    def test_empty_percentile(self):
        assert LatencyHistogram("h").percentile(0.5) == 0.0


class TestSlowQueryLog:
    """The slow-query log is a view over the tracer's ring."""

    @staticmethod
    def _finish(tracer, op, took_ms, **attrs):
        root = tracer.start_trace(op, **attrs)
        root["_t0"] -= took_ms * 1000.0  # as if it had started that long ago
        return tracer.finish_trace(root)

    def test_disabled_by_default(self):
        tracer = Tracer()
        assert tracer.slow_queries()["threshold_ms"] is None
        tracer.arm(1.0)  # no threshold: traces are kept, none is "slow"
        self._finish(tracer, "point", 100_000.0)
        view = tracer.slow_queries()
        assert view["threshold_ms"] is None
        assert (view["recorded"], view["buffered"], view["entries"]) == (0, 0, [])

    def test_threshold_and_capacity(self):
        tracer = Tracer()
        tracer.arm(0.0, slow_ms=1.0, capacity=2)
        self._finish(tracer, "point", 0.5)  # under: a discarded skeleton
        assert tracer.slow_queries()["entries"] == []
        kept = [self._finish(tracer, "window", 2.0, i=i) for i in range(3)]
        view = tracer.slow_queries()
        assert view["threshold_ms"] == 1.0 and view["capacity"] == 2
        assert view["buffered"] == len(view["entries"]) == 2  # bounded by the ring
        assert view["recorded"] == 3
        last = view["entries"][-1]
        assert sorted(last) == ["attrs", "ms", "op", "trace_id", "unix_time"]
        assert (last["op"], last["attrs"]) == ("window", {"i": 2})
        assert last["ms"] >= 2.0
        # The entry joins to the span tree that says why it was slow.
        assert tracer.find(last["trace_id"]) is kept[-1]
        assert kept[-1]["retained"] == "slow" and kept[-1]["sampled"] is False

    def test_sampled_and_errored_roots_are_listed_only_when_slow(self):
        tracer = Tracer()
        tracer.arm(1.0, slow_ms=1.0)
        self._finish(tracer, "point", 0.1)  # sampled, fast: kept, not slow
        root = tracer.start_trace("delete")
        tracer.finish_trace(root, error="KeyError: 9")  # errored, fast
        slow = self._finish(tracer, "window", 5.0)  # sampled and slow
        view = tracer.slow_queries()
        assert len(tracer.recent()) == 3
        assert [e["trace_id"] for e in view["entries"]] == [slow["trace_id"]]
        assert "retained" not in slow  # the head decision already kept it


class TestRegistryAndProm:
    def test_counter_and_histogram_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_queries_total", op="point", status="ok")
        b = reg.counter("repro_queries_total", status="ok", op="point")
        assert a is b  # label order does not matter
        assert reg.histogram("repro_op_latency_seconds", op="point") is (
            reg.histogram("repro_op_latency_seconds", op="point")
        )

    def test_render_json(self):
        reg = MetricsRegistry()
        reg.counter("repro_traces_total").inc(3)
        reg.histogram("repro_op_latency_seconds", op="point").observe(1e-4)
        out = reg.render_json()
        assert out["counters"][0]["value"] == 3
        assert out["histograms"][0]["count"] == 1

    def test_prom_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", op="point", status="ok").inc(5)
        reg.counter("repro_queries_total", op="window", status="ok").inc(2)
        hist = reg.histogram("repro_op_latency_seconds", op="point")
        for v in (1e-6, 5e-5, 2e-3, 0.5):
            hist.observe(v)
        text = reg.render_prom()
        families = parse_prom_text(text)  # raises if malformed
        counters = families["repro_queries_total"]
        assert counters["type"] == "counter"
        values = {
            tuple(sorted(labels.items())): value
            for _, labels, value in counters["samples"]
        }
        assert values[(("op", "point"), ("status", "ok"))] == 5
        lat = families["repro_op_latency_seconds"]
        assert lat["type"] == "histogram"
        count_samples = [
            v for n, _, v in lat["samples"] if n.endswith("_count")
        ]
        assert count_samples == [4]

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prom_text("repro_mystery_total 5\n")  # no TYPE header
        with pytest.raises(ValueError):
            parse_prom_text(
                "# TYPE x counter\nx{le= 5\n"
            )
        # Non-cumulative histogram buckets are rejected.
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.001"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_prom_text(bad)
        # +Inf bucket disagreeing with _count is rejected.
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_count 4\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_prom_text(bad)

    def test_concurrent_observation(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_op_latency_seconds", op="point")
        counter = reg.counter("repro_queries_total", op="point", status="ok")

        def worker():
            for _ in range(500):
                hist.observe(1e-5)
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts, total, _ = hist.raw()
        assert total == 4000
        assert sum(counts) == 4000
        assert counter.value == 4000
