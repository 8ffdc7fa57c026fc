"""Tests for the experiment harness (small, fast configurations)."""

from collections import Counter

import pytest

from repro.core import STRUCTURES
from repro.data import generate_county
from repro.harness import (
    WORKLOAD_NAMES,
    build_structure,
    format_figure6,
    format_normalized,
    format_occupancy,
    format_table1,
    format_table2,
    full_report,
    measure,
    measure_county,
    normalized_ranges,
    query_stats,
)
from repro.harness import report as report_module
from repro.harness.normalized import by_structure
from repro.harness.tables import equalizing_threshold, figure6_grid
from repro.harness.workloads import QueryWorkloads


@pytest.fixture(scope="module")
def tiny_map():
    return generate_county("cecil", scale=0.015)


@pytest.fixture(scope="module")
def tiny_county(tiny_map):
    return measure_county(
        tiny_map, n_queries=15, window_area_fraction=0.005, figure6=True
    )


@pytest.fixture(scope="module")
def two_counties():
    return measure(scale=0.01, n_queries=5, counties=["cecil", "charles"])


@pytest.fixture(scope="module")
def tiny_stats(tiny_county):
    return by_structure(tiny_county["workloads"])


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
    def test_build_row_contains_all_structures(self, tiny_county, tiny_map):
        row = tiny_county["table1"]
        assert row["county"] == "cecil" and row["segments"] == len(tiny_map)
        for metric in ("pages", "disk_reads", "disk_writes", "seconds"):
            assert set(row[metric]) == {"R*", "R+", "PMR"}, metric

    def test_table1_small(self, two_counties):
        rows = [c["table1"] for c in two_counties["counties"].values()]
        assert [r["county"] for r in rows] == ["cecil", "charles"]
        text = format_table1(rows)
        assert "cecil" in text and "disk accesses" in text

    def test_storage_ordering_claim(self, tiny_county):
        """Paper: R+ needs more storage than R*."""
        pages = tiny_county["table1"]["pages"]
        assert pages["R+"] > pages["R*"]


class TestWorkloads:
    def test_all_workloads_present(self, tiny_stats):
        assert set(tiny_stats) == {"PMR", "R+", "R*"}
        for by_workload in tiny_stats.values():
            assert set(by_workload) == set(WORKLOAD_NAMES)

    def test_stats_positive(self, tiny_stats):
        for by_workload in tiny_stats.values():
            for row in by_workload.values():
                assert row["queries"] == 15
                assert row["disk_accesses"] >= 0
                assert row["segment_comps"] > 0
                assert row["seconds"] > 0

    def test_point2_about_twice_point1(self, tiny_stats):
        """Query 2 is two point queries; PMR bucket comps say so exactly."""
        pmr = tiny_stats["PMR"]
        assert pmr["Point1"]["bbox_comps"] == pytest.approx(1.0)
        assert pmr["Point2"]["bbox_comps"] == pytest.approx(2.0)

    def test_pmr_bucket_comps_orders_of_magnitude_below_rtrees(self, tiny_stats):
        """The Figure 7 footnote: PMR bucket comps are not comparable."""
        for w in WORKLOAD_NAMES:
            pmr, rstar = tiny_stats["PMR"][w], tiny_stats["R*"][w]
            assert pmr["bbox_comps"] * 5 < rstar["bbox_comps"]

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

    def test_query_stats_over_given_builds(self, tiny_map):
        built = {name: build_structure(name, tiny_map) for name in ("PMR", "R+")}
        stats = query_stats(built, n_queries=5, seed=7)
        assert set(stats) == {"PMR", "R+"}
        assert stats["R+"]["Range"].queries == 5


class TestNormalized:
    def test_normalized_ranges_pmr_baseline(self, two_counties):
        ranges = normalized_ranges(two_counties, "disk_accesses")
        assert ranges, "no ranges produced"
        for r in ranges:
            assert r.minimum <= r.average <= r.maximum
            assert r.structure in ("R+", "R*")

    def test_figure7_variant(self, two_counties):
        ranges = normalized_ranges(
            two_counties, "bbox_comps", structures=("R+",), baseline="R*"
        )
        text = format_normalized(ranges, "Figure 7", baseline="R*")
        assert "R+" in text

    def test_collect_all_counties_subset(self):
        record = measure(scale=0.01, n_queries=5, counties=["cecil"])
        assert set(record["counties"]) == {"cecil"}
        assert record["config"]["counties"] == ["cecil"]


class TestSweeps:
    def test_figure6_shapes(self, tiny_county):
        grid = figure6_grid(tiny_county["figure6"])
        assert set(grid) == {"R+", "PMR"}
        reads = tiny_county["table1"]["disk_reads"]
        for s, values in grid.items():
            assert len(values) == 4 * 3
            # The (1024, 16) cell is the county's own build.
            assert values[(1024, 16)] == reads[s]
            # Paper: accesses decrease with page size and pool size.
            assert values[(1024, 16)] <= values[(512, 8)]
        text = format_figure6(tiny_county["figure6"])
        assert "512B" in text and "PMR" in text


class TestOccupancy:
    def test_report(self, tiny_county):
        occ = tiny_county["occupancy"]
        assert 0 < occ["R*"] <= 50 and 0 < occ["R+"] <= 50
        by_threshold = {row["threshold"]: row for row in occ["PMR"]}
        assert set(by_threshold) == {2, 4, 8, 16, 32, 64}
        # Paper: bucket occupancy grows with the threshold...
        assert by_threshold[32]["occupancy"] > by_threshold[2]["occupancy"]
        # ...and storage shrinks.
        assert by_threshold[32]["pages"] <= by_threshold[2]["pages"]
        assert equalizing_threshold(occ) in by_threshold
        assert "threshold" in format_occupancy(occ)

    def test_threshold_sweep(self, tiny_county):
        rows = tiny_county["occupancy"]["PMR"]
        assert rows[0]["threshold"] == 2
        assert rows[-1]["buckets"] <= rows[0]["buckets"]
        # Threshold 4 is the county's own PMR build.
        assert rows[1]["pages"] == tiny_county["table1"]["pages"]["PMR"]


class TestRecord:
    @pytest.fixture(scope="class")
    def builds(self):
        """Every ``build_structure`` call of a two-county ``full_report``."""
        calls = []
        real = report_module.build_structure

        def counting(name, map_data, page_size=1024, pool_pages=16, **kwargs):
            calls.append(
                (map_data.name, name, page_size, pool_pages, kwargs.get("threshold"))
            )
            return real(name, map_data, page_size, pool_pages, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(report_module, "build_structure", counting)
            full_report(scale=0.01, n_queries=5, counties=["cecil", "charles"])
        return calls

    def test_no_configuration_is_built_twice(self, builds):
        twice = [key for key, n in Counter(builds).items() if n > 1]
        assert twice == []

    def test_the_builds_are_exactly_what_the_record_needs(self, builds):
        """Per county: three structures plus five other PMR thresholds;
        on cecil, Figure 6's grid less the two (1024, 16) cells."""
        assert len(builds) == 2 * (3 + 5) + (2 * 4 * 3 - 2)
