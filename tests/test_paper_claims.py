"""The paper's shape claims, held against the committed paper-scale records.

Two records, both at the paper's scale (~50 000 segments per county,
1 000 queries per type, 1 KiB pages, a 16-page pool):

* ``benchmarks/results/BENCH_paper_core.json`` is charles county as
  ``benchmarks/e2e/run.py --workload paper_core`` measured it; CI's
  counter gate keeps a fresh run equal to it, counter for counter.
* ``REPORT.json`` is all six counties as ``python -m repro report --scale
  1.0 --queries 1000 --out REPORT.md`` measured them: Table 1, Table 2,
  Figures 6-9 and the occupancy analysis. ``REPORT.md`` is its rendering.

The claims read the records and run nothing (but for one fresh rebuild
of charles's PMR that keeps ``REPORT.json`` honest): they assert the
*orderings and bands* DESIGN.md section 4 ("Shape claims we verify")
takes from Hoel & Samet, so a refactor of ``repro.core`` that
re-baselines a record cannot drift the science unnoticed.

Where a record contradicts the paper the claim is a strict ``xfail``
carrying the number: the change that fixes one must flip it.
"""

import json
import os

import pytest

from repro.data import COUNTY_NAMES, generate_county
from repro.harness import build_structure, normalized_ranges, render
from repro.harness.normalized import by_structure
from repro.harness.tables import equalizing_threshold, figure6_grid
from repro.harness.workloads import (
    WORKLOAD_NAMES,
    QueryWorkloads,
    run_nearest,
    run_point1,
    run_point2,
    run_range,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")
RECORD = os.path.join(ROOT, "benchmarks", "results", "BENCH_paper_core.json")
REPORT = os.path.join(ROOT, "REPORT.json")
STRUCTURES = ("rstar", "rplus", "pmr")
SLUG = {"R*": "rstar", "R+": "rplus", "PMR": "pmr"}


@pytest.fixture(scope="module")
def metric():
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["config"]["county"] == "charles"
    assert record["config"]["scale"] == 1.0 and record["config"]["page_size"] == 1024
    metrics = record["workloads"]["paper_core"]["per_layer"]["metrics"]
    return lambda name: metrics[name]["value"]


def _per_structure(metric, family, suffix=""):
    return [metric(f"{family}.{s}{suffix}") for s in STRUCTURES]


@pytest.mark.parametrize("query", ["point", "point2", "nearest"])
def test_figure8_point_queries_cost_pmr_then_rplus_then_rstar(metric, query):
    """Claim 4: on disk accesses the PMR has the edge and R+ <= R*
    (record: 3.20 < 3.65 < 3.92, 3.71 < 4.25 < 4.39, 3.78 < 6.97 < 7.41)."""
    rstar, rplus, pmr = _per_structure(
        metric, "core.disk_accesses_per_query", f".{query}"
    )
    assert pmr < rplus < rstar


def test_figure8_polygon_query_reverses_the_r_trees(metric):
    """Claim 4's exception: walking a polygon, the R*-tree's compactness
    buys locality and it edges the R+-tree (record: 51.9 < 71.4)."""
    rstar, rplus, _pmr = _per_structure(
        metric, "core.disk_accesses_per_query", ".polygon"
    )
    assert rstar < rplus


def test_figure7_bbox_computations(metric):
    """Figure 7 and claim 6: R+ computes fewer bounding boxes than R*
    (ratio below 1), and the PMR's bucket computations are an order of
    magnitude below both (record: 831 / 1 219, and 11.4)."""
    rstar, rplus, pmr = _per_structure(metric, "core.bbox_comps_per_op")
    assert rplus / rstar < 1
    assert 10 * pmr < rplus and 10 * pmr < rstar


def test_figure9_segment_comparisons(metric):
    """Figure 9 and claim 7: sorted space prunes -- PMR <= R+ <= R*
    (record: 31.1, 32.8, 35.4)."""
    rstar, rplus, pmr = _per_structure(metric, "core.segment_comps_per_op")
    assert pmr <= rplus <= rstar


def test_table1_rplus_is_the_largest_index(metric):
    """Claim 1: duplication costs the R+-tree the most pages (record:
    2 461 against R* 1 628 and PMR 1 537), within an order of magnitude."""
    rstar, rplus, pmr = _per_structure(metric, "storage.index_pages")
    assert rplus > rstar and rplus > pmr
    assert rplus < 10 * min(rstar, pmr)


# ----------------------------------------------------------------------
# Where the record contradicts the paper
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    reason="claim 3: the record has PMR building *faster* than R+ "
    "(pmr_over_rplus 0.92) where Table 1 has it 1.5-1.7x slower",
)
def test_table1_pmr_builds_slower_than_rplus(metric):
    assert 1.5 <= metric("core.build_ratio.pmr_over_rplus") <= 1.7


@pytest.mark.xfail(
    strict=True,
    reason="claim 3: the record has R* 10.90x slower to build than R+ "
    "where Table 1 has 7.8-9.1x: above the band since the R+ split search "
    "stopped rescanning every extent per candidate line",
)
def test_table1_rstar_builds_many_times_slower_than_rplus(metric):
    assert 7.8 <= metric("core.build_ratio.rstar_over_rplus") <= 9.1


@pytest.mark.xfail(
    strict=True,
    reason="claim 1: the record has the PMR *smaller* than R* (1 537 pages "
    "against 1 628) where Table 1 has it 13-43 % larger",
)
def test_table1_pmr_is_larger_than_rstar(metric):
    rstar, _rplus, pmr = _per_structure(metric, "storage.index_pages")
    assert 1.13 <= pmr / rstar <= 1.43


@pytest.mark.xfail(
    strict=True,
    reason="claim 4: on the window query the record has R* ahead of the "
    "PMR (5.05 < 5.42 disk accesses) where the paper gives the PMR the edge",
)
def test_figure8_window_query_favours_the_pmr(metric):
    rstar, _rplus, pmr = _per_structure(
        metric, "core.disk_accesses_per_query", ".window"
    )
    assert pmr <= rstar


# ----------------------------------------------------------------------
# REPORT.json: six counties, every table and figure
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def report():
    with open(REPORT, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def charles(report):
    """Table 2: ``{structure: {workload: row}}`` for charles county."""
    return by_structure(report["counties"]["charles"]["workloads"])


class TestRecord:
    def test_the_record_is_the_papers_configuration(self, report):
        assert report["config"] == {
            "counties": list(COUNTY_NAMES),
            "scale": 1.0,
            "queries": 1000,
            "seed": 1992,
            "page_size": 1024,
            "pool_pages": 16,
        }

    def test_report_md_is_the_rendered_record(self, report):
        with open(os.path.join(ROOT, "REPORT.md"), encoding="utf-8") as fh:
            assert render(report) == fh.read()

    def test_charles_equals_the_gated_record(self, report, metric):
        """Table 1's sizes and Point1's disk accesses are the bench's. On
        Point2, Nearest(2-stage) and Range the harness may read a little
        more: it clears the pool before each workload, the bench once per
        structure, and under LRU a warm start only saves misses -- at
        most one per frame, so at most 16 reads per 1 000 queries."""
        county = report["counties"]["charles"]
        stats = by_structure(county["workloads"])
        for name, slug in SLUG.items():
            pages = county["table1"]["pages"][name]
            assert pages == metric(f"storage.index_pages.{slug}"), name
            point1 = stats[name]["Point1"]["disk_accesses"]
            assert point1 == metric(f"core.disk_accesses_per_query.{slug}.point")
            for workload, qtype in (
                ("Point2", "point2"),
                ("Nearest(2-stage)", "nearest"),
                ("Range", "window"),
            ):
                row = stats[name][workload]
                bench = metric(f"core.disk_accesses_per_query.{slug}.{qtype}")
                extra = round((row["disk_accesses"] - bench) * row["queries"])
                assert 0 <= extra <= 16, (name, workload, extra)

    def test_a_fresh_build_measures_what_the_record_holds(self, report):
        """Charles's PMR, rebuilt at scale 1.0: its Table 1 counts and its
        non-polygon workload rows are the record's, exactly."""
        cfg, county = report["config"], report["counties"]["charles"]
        map_data = generate_county("charles", scale=cfg["scale"])
        built = build_structure("PMR", map_data)
        row = county["table1"]
        assert built.index.page_count() == row["pages"]["PMR"]
        assert built.build_metrics.disk_reads == row["disk_reads"]["PMR"]
        assert built.build_metrics.disk_writes == row["disk_writes"]["PMR"]

        w = QueryWorkloads.generate(
            map_data,
            built.index,
            cfg["queries"],
            seed=cfg["seed"],
            window_area_fraction=min(0.0001 / cfg["scale"], 0.01),
        )
        fresh = [
            run_point1(built, w.endpoint_queries),
            run_point2(built, w.endpoint_queries),
            run_nearest(built, w.two_stage, "Nearest(2-stage)"),
            run_nearest(built, w.one_stage, "Nearest(1-stage)"),
            run_range(built, w.windows),
        ]
        recorded = by_structure(county["workloads"])["PMR"]
        for stats in fresh:
            got = {k: v for k, v in vars(stats).items() if k != "seconds"}
            want = {k: v for k, v in recorded[stats.workload].items() if k != "seconds"}
            assert got == want


class TestTable1:
    """Table 1. Storage: the R+-tree uses 26-43 % more than the R*-tree
    and the PMR 13-43 % more (asserted: R+ is the largest and all three
    are within ~2.5x of each other). Build cpu time: R+ fastest, PMR
    next, R* 7.8-9.1x R+ (asserted: a factor of >= 2). Build disk
    accesses: all three comparable."""

    def test_table1_single_county_build(self, report):
        row = report["counties"]["charles"]["table1"]
        size, seconds = row["pages"], row["seconds"]
        # Storage: R+ needs the most space (duplicated entries); everything
        # stays within the same order of magnitude.
        assert size["R+"] > size["R*"]
        assert size["PMR"] < 2.5 * size["R*"]
        assert size["R+"] < 2.5 * size["R*"]
        # Build time: R+ and PMR close together, the R*-tree slower than
        # both by a clear factor.
        fast = min(seconds["R+"], seconds["PMR"])
        slow = max(seconds["R+"], seconds["PMR"])
        assert slow <= 2.0 * fast
        assert seconds["R*"] >= 2 * slow
        # Disk accesses comparable (within ~2.5x of each other).
        accesses = row["disk_reads"]
        assert max(accesses.values()) <= 2.5 * min(accesses.values())

    def test_table1_all_counties(self, report):
        for county in report["counties"].values():
            row = county["table1"]
            assert row["pages"]["R+"] > row["pages"]["R*"], row["county"]
            assert row["seconds"]["R*"] > row["seconds"]["R+"], row["county"]

    def test_table1_build_accesses_comparable(self, report):
        """Paper: "The disk accesses for all three structures were also
        comparable": on every county within a 2.5x band."""
        for county in report["counties"].values():
            values = list(county["table1"]["disk_reads"].values())
            assert max(values) <= 2.5 * min(values), county["table1"]


class TestTable2:
    """Table 2, charles county (the rural extreme), and Section 6."""

    def test_table2_reproduction(self, charles):
        pmr, rplus, rstar = charles["PMR"], charles["R+"], charles["R*"]
        # PMR bucket computations: exactly one bucket per point query, two
        # for query 2 (it is two point queries).
        assert pmr["Point1"]["bbox_comps"] == pytest.approx(1.0)
        assert pmr["Point2"]["bbox_comps"] == pytest.approx(2.0)
        # Bucket vs bounding-box computations: far apart on every workload
        # (the paper's charles ratios run from ~11x on the range query to
        # ~100x on the point queries).
        for w in WORKLOAD_NAMES:
            assert pmr[w]["bbox_comps"] * 8 < rstar[w]["bbox_comps"], w
            assert pmr[w]["bbox_comps"] * 8 < rplus[w]["bbox_comps"], w

    def test_point_queries_shape(self, charles):
        pmr, rplus, rstar = charles["PMR"], charles["R+"], charles["R*"]
        # R-tree leaf MBRs filter candidates: fewer segment comparisons.
        assert rplus["Point1"]["segment_comps"] <= pmr["Point1"]["segment_comps"]
        assert rstar["Point1"]["segment_comps"] <= pmr["Point1"]["segment_comps"]
        # Disk accesses: PMR has the edge (120 tuples per page vs 50).
        assert pmr["Point1"]["disk_accesses"] <= rplus["Point1"]["disk_accesses"]
        assert pmr["Point1"]["disk_accesses"] <= rstar["Point1"]["disk_accesses"]
        # Point2 costs roughly twice Point1 for every structure.
        for s in charles.values():
            ratio = s["Point2"]["segment_comps"] / s["Point1"]["segment_comps"]
            assert 1.3 <= ratio <= 3.0, (s["Point1"], s["Point2"])

    def test_nearest_line_shape(self, charles):
        pmr, rplus, rstar = charles["PMR"], charles["R+"], charles["R*"]
        for w in ("Nearest(2-stage)", "Nearest(1-stage)"):
            # The PMR's small sorted buckets prune the most segments.
            assert pmr[w]["segment_comps"] * 2 < rplus[w]["segment_comps"], w
            assert pmr[w]["segment_comps"] * 2 < rstar[w]["segment_comps"], w
        # Data-correlated points: the disjoint decompositions win on disk.
        w = "Nearest(2-stage)"
        assert pmr[w]["disk_accesses"] < rstar[w]["disk_accesses"]
        assert rplus[w]["disk_accesses"] <= rstar[w]["disk_accesses"] * 1.15

    def test_range_query_shape(self, charles):
        pmr, rplus, rstar = charles["PMR"], charles["R+"], charles["R*"]
        # The PMR pays more segment comparisons on windows (whole buckets
        # are candidates); the R-trees' MBRs prune.
        assert pmr["Range"]["segment_comps"] > rplus["Range"]["segment_comps"]
        assert pmr["Range"]["segment_comps"] > rstar["Range"]["segment_comps"]
        # Disk accesses stay comparable across all three.
        values = [s["Range"]["disk_accesses"] for s in charles.values()]
        assert max(values) <= 2.0 * min(values)

    def test_polygon_query_shape(self, charles):
        pmr, rplus, rstar = charles["PMR"], charles["R+"], charles["R*"]
        for w in ("Polygon(2-stage)", "Polygon(1-stage)"):
            # The paper's surprise: on the polygon traversal the compact
            # R*-tree beats the R+-tree even though the R+-tree wins the
            # constituent point queries (locality beats disjointness).
            assert rstar[w]["disk_accesses"] < rplus[w]["disk_accesses"], w
            # The paper has the PMR fewest of all; the record has R* just
            # below it (charles: 84.71 vs 85.39 two-stage, 115.55 vs
            # 117.67 one-stage) and R+ far above both. The bound holds
            # the PMR within 10 % of R*.
            assert pmr[w]["disk_accesses"] <= rstar[w]["disk_accesses"] * 1.1, w


PAGE_SIZES = (512, 1024, 2048, 4096)
POOL_SIZES = (8, 16, 32)


@pytest.fixture(scope="module")
def figure6(report):
    assert report["figure6"]["county"] == "cecil"
    return figure6_grid(report["figure6"]["cells"])


class TestFigure6:
    """Figure 6 (cecil): build accesses decrease as the page size and the
    buffer pool grow, for both the R+-tree and the PMR quadtree; and the
    PMR needs fewer than the R+-tree under identical configurations (its
    8-byte tuples pack 120 to a 1 KiB page against 50 20-byte ones)."""

    def test_figure6_reproduction(self, figure6):
        assert set(figure6) == {"R+", "PMR"}

    def test_accesses_decrease_with_buffer_size(self, figure6):
        for structure, values in figure6.items():
            for page_size in PAGE_SIZES:
                series = [values[(page_size, p)] for p in POOL_SIZES]
                assert series[0] >= series[-1], (structure, page_size, series)

    def test_accesses_decrease_with_page_size(self, figure6):
        for structure, values in figure6.items():
            for pool in POOL_SIZES:
                series = [values[(p, pool)] for p in PAGE_SIZES]
                assert series[0] >= series[-1], (structure, pool, series)

    def test_pmr_fewer_accesses_than_rplus_identical_configs(self, figure6):
        """Guaranteed where the capacity ratio bites hardest -- the
        smallest page size -- and in at least half of all configurations."""
        pmr, rplus = figure6["PMR"], figure6["R+"]
        smallest = min(PAGE_SIZES)
        for pool in POOL_SIZES:
            assert pmr[(smallest, pool)] <= rplus[(smallest, pool)], (pool, figure6)
        wins = sum(1 for key, v in rplus.items() if pmr[key] <= v)
        assert wins >= 0.5 * len(rplus), figure6


class TestFigure7:
    """Figure 7 normalizes the R+-tree against the R*-tree because the
    PMR's bucket computations are about two orders of magnitude smaller."""

    def test_figure7_reproduction(self, report):
        ranges = normalized_ranges(
            report, "bbox_comps", structures=("R+",), baseline="R*"
        )
        assert {r.workload for r in ranges} == set(WORKLOAD_NAMES)
        # R+ <= R* on average for most workloads (disjointness prunes).
        better = sum(1 for r in ranges if r.average <= 1.05)
        assert better >= len(ranges) - 2, [(r.workload, r.average) for r in ranges]

    def test_pmr_bucket_comps_not_plottable(self, report):
        """The paper's stated reason for excluding the PMR from Figure 7."""
        values = []
        for county in report["counties"].values():
            stats = by_structure(county["workloads"])
            for w in WORKLOAD_NAMES:
                pmr, rstar = stats["PMR"][w]["bbox_comps"], stats["R*"][w]["bbox_comps"]
                if pmr > 0:
                    values.append(rstar / pmr)
        assert values
        avg = sum(values) / len(values)
        assert avg > 20, f"average R*/PMR bbox ratio only {avg:.1f}"
        assert min(values) > 5


@pytest.fixture(scope="module")
def figure8(report):
    ranges = normalized_ranges(report, "disk_accesses")
    return {(r.structure, r.workload): r for r in ranges}


class TestFigure8:
    """Figure 8, disk accesses normalized against the PMR: "the PMR
    quadtree seemed to have a slight edge over the R-trees. However, the
    differences were not that great"; the R+-tree usually beats the
    R*-tree, except on the polygon query (compactness keeps the next
    point query's pages resident)."""

    def test_figure8_reproduction(self, figure8):
        assert {structure for structure, _ in figure8} == {"R+", "R*"}

    def test_pmr_has_slight_edge_overall(self, figure8):
        averages = [r.average for r in figure8.values()]
        # Most normalized values are >= 1 (PMR at least as good)...
        at_least_one = sum(1 for a in averages if a >= 0.95)
        assert at_least_one >= 0.6 * len(averages), averages
        # ...but the differences are not huge (the paper's "comparable").
        assert max(averages) < 6, averages

    def test_polygon_reversal_rstar_beats_rplus(self, figure8):
        for w in ("Polygon(2-stage)", "Polygon(1-stage)"):
            assert figure8[("R*", w)].average < figure8[("R+", w)].average, w

    def test_rplus_usually_at_least_as_good_as_rstar_on_searches(self, figure8):
        """Comparability within a ~15 % band rather than a strict order."""
        searches = [w for w in WORKLOAD_NAMES if not w.startswith("Polygon")]
        wins = sum(
            1
            for w in searches
            if figure8[("R+", w)].average <= figure8[("R*", w)].average * 1.15
        )
        assert wins >= len(searches) - 1, {
            w: (figure8[("R+", w)].average, figure8[("R*", w)].average)
            for w in searches
        }


@pytest.fixture(scope="module")
def figure9(report):
    ranges = normalized_ranges(report, "segment_comps")
    return {(r.structure, r.workload): r for r in ranges}


class TestFigure9:
    """Figure 9, segment comparisons normalized against the PMR:
    comparable "with the exception of the range and nearest line
    queries" -- the nearest line favours the PMR (sorted buckets prune),
    the range query the R-trees (leaf MBRs prune)."""

    def test_figure9_reproduction(self, figure9):
        assert figure9

    def test_nearest_line_strongly_favours_pmr(self, figure9):
        for s in ("R+", "R*"):
            for w in ("Nearest(2-stage)", "Nearest(1-stage)"):
                assert figure9[(s, w)].average > 2.0, (s, w, figure9[(s, w)].average)

    def test_range_query_favours_rtrees(self, figure9):
        for s in ("R+", "R*"):
            assert figure9[(s, "Range")].average < 1.0, (s, figure9[(s, "Range")])

    def test_point_queries_mild_rtree_advantage(self, figure9):
        for s in ("R+", "R*"):
            for w in ("Point1", "Point2"):
                avg = figure9[(s, w)].average
                # Better than PMR, but only mildly (paper: "relatively small").
                assert 0.4 <= avg <= 1.1, (s, w, avg)

    def test_polygon_comparable_across_structures(self, figure9):
        for s in ("R+", "R*"):
            for w in ("Polygon(2-stage)", "Polygon(1-stage)"):
                assert 0.5 <= figure9[(s, w)].average <= 1.5, (s, w)


class TestOccupancy:
    """Concluding Remarks (1 KiB pages), on all six counties: R*-tree
    pages hold ~36 segments and R+-tree pages ~32; a PMR bucket with
    splitting threshold x holds ~0.5x; a threshold of ~64 would equalize
    the two; raising the threshold lowers the PMR's storage."""

    def test_occupancy_reproduction(self, report):
        for county in report["counties"].values():
            occ = county["occupancy"]
            # R-tree page occupancy lands in the paper's ballpark (32-36 of 50).
            assert 25 <= occ["R*"] <= 45, occ["county"]
            assert 20 <= occ["R+"] <= 45, occ["county"]
            # The R+-tree runs less full than the R*-tree.
            assert occ["R+"] <= occ["R*"] + 2, occ["county"]

    def test_bucket_occupancy_about_half_threshold(self, report):
        for county in report["counties"].values():
            for row in county["occupancy"]["PMR"]:
                if row["threshold"] >= 8:
                    ratio = row["occupancy"] / row["threshold"]
                    assert 0.25 <= ratio <= 1.0, (county["occupancy"]["county"], row)

    def test_equalizing_threshold_is_large(self, report):
        """The paper estimates ~64 equalizes bucket and page occupancy."""
        for county in report["counties"].values():
            occ = county["occupancy"]
            assert equalizing_threshold(occ) >= 32, occ["county"]

    def test_storage_decreases_with_threshold(self, report):
        for county in report["counties"].values():
            rows = {r["threshold"]: r for r in county["occupancy"]["PMR"]}
            sizes = [rows[t]["pages"] for t in (2, 8, 32)]
            assert sizes[0] >= sizes[1] >= sizes[2], (county["table1"]["county"], sizes)
            assert rows[2]["buckets"] > rows[32]["buckets"]
