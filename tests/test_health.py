"""Structural health telemetry, build info, and trace-ring saturation.

Health must be a pure observer: every number is computed over
``disk.peek`` or in-memory directory state, so refreshing the gauges
moves no ``MetricsCounters`` field, no pool statistic, and no fsck
verdict -- a live server can be health-checked mid-benchmark.
"""

import pytest

from repro.analysis import check_index
from repro.obs import (
    TRACER,
    MetricsRegistry,
    Tracer,
    compute_health,
    parse_prom_text,
    publish_build_info,
    publish_health,
)
from repro.obs.health import OCCUPANCY_BUCKETS
from repro.service import QueryEngine
from repro.service.api import Command, parse_request

from tests.conftest import build_index, lattice_map


class TestComputeHealth:
    def test_tree_report_shape(self):
        idx = build_index("R*", lattice_map(n=8))
        report = compute_health(idx)
        assert report["kind"] == "tree"
        assert report["structure"] == "R*"
        assert report["pages"] == report["leaves"] + report["internal_nodes"]
        assert sum(report["node_occupancy"].values()) == report["pages"]
        assert set(report["node_occupancy"]) == set(OCCUPANCY_BUCKETS)
        assert 0.0 <= report["avg_leaf_occupancy"] <= 1.0
        assert 0.0 <= report["dead_space_ratio"] <= 1.0
        assert report["overlap_area"] >= 0.0

    def test_rplus_tiles_without_overlap_but_duplicates(self):
        idx = build_index("R+", lattice_map(n=8))
        report = compute_health(idx)
        assert report["overlap_area"] == 0.0  # disjoint directory rects
        assert report["duplication_factor"] >= 1.0
        assert report["entries"] >= report["segments"]

    def test_pmr_report_shape(self):
        idx = build_index("PMR", lattice_map(n=8))
        report = compute_health(idx)
        assert report["kind"] == "pmr"
        assert sum(report["block_depth"].values()) == report["leaf_blocks"]
        assert report["occupied_blocks"] <= report["leaf_blocks"]
        assert 0.0 <= report["split_pressure"] <= 1.0
        assert report["duplication_factor"] >= 1.0
        assert report["btree_height"] >= 1

    def test_health_moves_no_counter_and_no_fsck_verdict(self):
        for kind in ("R*", "R+", "PMR"):
            idx = build_index(kind, lattice_map(n=8))
            fsck_before = [f.to_dict() for f in check_index(idx)]
            counters_before = idx.ctx.counters.snapshot()
            pool_resident = len(idx.ctx.pool)
            compute_health(idx)
            publish_health(idx, MetricsRegistry())
            assert idx.ctx.counters.snapshot() == counters_before, kind
            assert len(idx.ctx.pool) == pool_resident, kind
            fsck_after = [f.to_dict() for f in check_index(idx)]
            assert fsck_before == fsck_after, kind


class TestPublishHealth:
    def test_gauges_render_and_parse_back(self):
        registry = MetricsRegistry()
        idx = build_index("PMR", lattice_map(n=8))
        report = publish_health(idx, registry)
        families = parse_prom_text(registry.render_prom())
        assert families["repro_index_pages"]["type"] == "gauge"
        (sample,) = families["repro_index_pages"]["samples"]
        assert sample[1] == {"structure": "PMR"}
        assert sample[2] == report["pages"]
        depth_samples = families["repro_index_block_depth"]["samples"]
        assert {s[1]["depth"] for s in depth_samples} == set(
            report["block_depth"]
        )

    def test_engine_health_op_returns_report(self):
        engine = QueryEngine(
            build_index("R*", lattice_map(n=6)), registry=MetricsRegistry()
        )
        before = engine.totals.as_dict()
        report = engine.execute(Command("health"))
        assert report["structure"] == "R*"
        assert engine.totals.as_dict() == before  # zero counter movement
        families = parse_prom_text(engine.registry.render_prom())
        assert "repro_index_height" in families


class TestBuildInfo:
    def test_round_trips_through_strict_parser(self):
        registry = MetricsRegistry()
        publish_build_info(registry, page_size=1024, grid_bits=14)
        families = parse_prom_text(registry.render_prom())
        (sample,) = families["repro_build_info"]["samples"]
        _, labels, value = sample
        assert value == 1
        assert labels["page_size"] == "1024"
        assert labels["grid_bits"] == "14"
        assert labels["version"]
        assert labels["git_sha"]  # "unknown" outside a work tree, never empty

    def test_engine_publishes_build_info_on_construction(self):
        registry = MetricsRegistry()
        QueryEngine(build_index("R*", lattice_map(n=6)), registry=registry)
        families = parse_prom_text(registry.render_prom())
        (sample,) = families["repro_build_info"]["samples"]
        assert sample[2] == 1


class TestTraceRingSaturation:
    def test_wrap_increments_evicted(self):
        tracer = Tracer()
        tracer.arm(1.0, capacity=3)
        for i in range(8):
            root = tracer.start_trace("point", i=i)
            tracer.finish_trace(root)
        assert tracer.evicted == 5
        assert len(tracer.recent()) == 3
        assert tracer.stats()["evicted"] == 5
        # The survivors are the newest three, in oldest-first order.
        assert [t["attrs"]["i"] for t in tracer.recent()] == [5, 6, 7]

    def test_engine_mirrors_drops_into_registry(self):
        registry = MetricsRegistry()
        engine = QueryEngine(
            build_index("R*", lattice_map(n=6)), registry=registry
        )
        evicted_before = TRACER.evicted
        saved_capacity = TRACER.capacity
        TRACER.arm(1.0, capacity=2)
        try:
            for _ in range(5):
                engine.execute(
                    parse_request({"op": "point", "x": 100, "y": 100, "use_cache": False})
                )
        finally:
            TRACER.arm(1.0, capacity=saved_capacity)  # restore the ring size
            TRACER.disarm()
            TRACER.clear()
        assert TRACER.evicted == evicted_before + 3
        engine.sync_mirrored_counters()
        families = parse_prom_text(registry.render_prom())
        (sample,) = families["repro_trace_dropped_total"]["samples"]
        assert sample[2] == TRACER.evicted
