"""Tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.core import STRUCTURES
from repro.data import generate_county
from repro.harness import (
    WORKLOAD_NAMES,
    build_structure,
    figure6_sweep,
    format_figure6,
    format_normalized,
    format_occupancy,
    format_table1,
    format_table2,
    normalized_ranges,
    occupancy_report,
    pmr_threshold_sweep,
)
from repro.harness.build_stats import build_row, table1
from repro.harness.normalized import collect_all_counties
from repro.harness.query_stats import map_query_stats
from repro.harness.sweeps import sweep_as_grid
from repro.harness.workloads import QueryWorkloads, run_workloads


@pytest.fixture(scope="module")
def tiny_map():
    return generate_county("cecil", scale=0.015)


@pytest.fixture(scope="module")
def tiny_stats(tiny_map):
    return map_query_stats(tiny_map, n_queries=15, window_area_fraction=0.005)


class TestBuildStructure:
    def test_unknown_structure(self, tiny_map):
        with pytest.raises(KeyError):
            build_structure("btree-of-doom", tiny_map)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_every_factory_builds(self, name, tiny_map):
        built = build_structure(name, tiny_map)
        assert built.index.entry_count() >= len(tiny_map)
        assert built.build_metrics.disk_reads >= 0
        assert built.size_kbytes > 0
        assert built.build_seconds > 0

    def test_metrics_isolated_per_structure(self, tiny_map):
        a = build_structure("PMR", tiny_map)
        b = build_structure("R*", tiny_map)
        assert a.ctx is not b.ctx
        assert a.ctx.counters is not b.ctx.counters


class TestBuildStats:
    def test_build_row_contains_all_structures(self, tiny_map):
        row = build_row(tiny_map, structures=("R*", "PMR"))
        assert set(row.size_kbytes) == {"R*", "PMR"}
        assert row.segments == len(tiny_map)

    def test_table1_small(self):
        rows = table1(scale=0.01, counties=["cecil", "charles"])
        assert [r.county for r in rows] == ["cecil", "charles"]
        text = format_table1(rows)
        assert "cecil" in text and "disk accesses" in text

    def test_storage_ordering_claim(self, tiny_map):
        """Paper: R+ and PMR need more storage than R*."""
        row = build_row(tiny_map)
        assert row.size_kbytes["R+"] > row.size_kbytes["R*"]


class TestWorkloads:
    def test_all_workloads_present(self, tiny_stats):
        for s, by_workload in tiny_stats.items():
            assert set(by_workload) == set(WORKLOAD_NAMES)

    def test_stats_positive(self, tiny_stats):
        for s, by_workload in tiny_stats.items():
            for w, st_ in by_workload.items():
                assert st_.queries == 15
                assert st_.disk_accesses >= 0
                assert st_.segment_comps > 0

    def test_point2_about_twice_point1(self, tiny_stats):
        """Query 2 is two point queries; PMR bucket comps say so exactly."""
        pmr = tiny_stats["PMR"]
        assert pmr["Point1"].bbox_comps == pytest.approx(1.0)
        assert pmr["Point2"].bbox_comps == pytest.approx(2.0)

    def test_pmr_bucket_comps_orders_of_magnitude_below_rtrees(self, tiny_stats):
        """The Figure 7 footnote: PMR bucket comps are not comparable."""
        for w in WORKLOAD_NAMES:
            assert tiny_stats["PMR"][w].bbox_comps * 5 < tiny_stats["R*"][w].bbox_comps

    def test_format_table2(self, tiny_stats):
        text = format_table2(tiny_stats, county="cecil")
        assert "cecil county" in text
        assert "Point1" in text and "Range" in text

    def test_workloads_shared_across_structures(self, tiny_map):
        built_pmr = build_structure("PMR", tiny_map)
        w = QueryWorkloads.generate(tiny_map, built_pmr.index, 5, seed=7)
        w2 = QueryWorkloads.generate(tiny_map, built_pmr.index, 5, seed=7)
        assert w.one_stage == w2.one_stage
        assert w.endpoint_queries == w2.endpoint_queries


class TestNormalized:
    def test_normalized_ranges_pmr_baseline(self, tiny_map):
        per_county = {"cecil": map_query_stats(tiny_map, n_queries=10)}
        ranges = normalized_ranges(per_county, "disk_accesses")
        assert ranges, "no ranges produced"
        for r in ranges:
            assert r.minimum <= r.average <= r.maximum
            assert r.structure in ("R+", "R*")

    def test_figure7_variant(self, tiny_map):
        per_county = {"cecil": map_query_stats(tiny_map, n_queries=10)}
        ranges = normalized_ranges(
            per_county, "bbox_comps", structures=("R+",), baseline="R*"
        )
        text = format_normalized(ranges, "Figure 7", baseline="R*")
        assert "R+" in text

    def test_collect_all_counties_subset(self):
        per_county = collect_all_counties(
            scale=0.01, n_queries=5, counties=["cecil"]
        )
        assert set(per_county) == {"cecil"}


class TestSweeps:
    def test_figure6_shapes(self, tiny_map):
        cells = figure6_sweep(
            map_data=tiny_map,
            page_sizes=(512, 1024),
            pool_pages_options=(8, 16),
        )
        assert len(cells) == 2 * 2 * 2
        grid = sweep_as_grid(cells)
        assert set(grid) == {"R+", "PMR"}
        for s, values in grid.items():
            # Paper: accesses decrease with page size and pool size.
            assert values[(1024, 16)] <= values[(512, 8)]
        text = format_figure6(cells)
        assert "512B" in text and "PMR" in text


class TestOccupancy:
    def test_report(self, tiny_map):
        report = occupancy_report(map_data=tiny_map, thresholds=(2, 8, 32))
        assert 0 < report.rstar_leaf_occupancy <= 50
        assert 0 < report.rplus_leaf_occupancy <= 50
        assert set(report.pmr_bucket_occupancy) == {2, 8, 32}
        # Paper: bucket occupancy grows with the threshold...
        assert report.pmr_bucket_occupancy[32] > report.pmr_bucket_occupancy[2]
        # ...and storage shrinks.
        assert report.pmr_size_kbytes[32] <= report.pmr_size_kbytes[2]
        assert report.equalizing_threshold() in (2, 8, 32)
        text = format_occupancy(report)
        assert "threshold" in text

    def test_threshold_sweep(self, tiny_map):
        rows = pmr_threshold_sweep(tiny_map, thresholds=(2, 16))
        assert rows[0]["threshold"] == 2
        assert rows[1]["buckets"] <= rows[0]["buckets"]
