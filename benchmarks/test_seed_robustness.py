"""Robustness: the headline orderings must not depend on the query seed.

The paper draws one random batch of 1000 queries; we check that the
claims the other benchmarks assert once also hold across independently
seeded query batches (same built structures, fresh random queries).
"""

from __future__ import annotations

import pytest

from repro.harness import build_structure, query_stats

from benchmarks.conftest import N_QUERIES, SCALE, write_result

SEEDS = (1992, 4711, 99991)

_cache = {}


def _runs(county_maps):
    if "runs" not in _cache:
        charles = county_maps["charles"]
        built = {name: build_structure(name, charles) for name in ("PMR", "R+", "R*")}
        _cache["runs"] = {
            seed: query_stats(
                built,
                n_queries=max(50, N_QUERIES // 2),
                seed=seed,
                window_area_fraction=min(0.0001 / SCALE, 0.01),
            )
            for seed in SEEDS
        }
    return _cache["runs"]


def test_orderings_stable_across_seeds(benchmark, county_maps):
    runs = benchmark.pedantic(lambda: _runs(county_maps), rounds=1, iterations=1)
    lines = []
    for seed, stats in runs.items():
        pmr, rplus, rstar = stats["PMR"], stats["R+"], stats["R*"]
        lines.append(
            f"seed {seed}: point1 disk {pmr['Point1'].disk_accesses:.2f}/"
            f"{rplus['Point1'].disk_accesses:.2f}/{rstar['Point1'].disk_accesses:.2f}  "
            f"nearest segcomps {pmr['Nearest(2-stage)'].segment_comps:.1f}/"
            f"{rplus['Nearest(2-stage)'].segment_comps:.1f}/"
            f"{rstar['Nearest(2-stage)'].segment_comps:.1f}"
        )

        # The three most load-bearing claims, per seed:
        # 1. PMR bucket comps stay exactly 1 / 2 for the point queries.
        assert pmr["Point1"].bbox_comps == pytest.approx(1.0), seed
        assert pmr["Point2"].bbox_comps == pytest.approx(2.0), seed
        # 2. Nearest-line segment comparisons strongly favour the PMR.
        assert (
            pmr["Nearest(2-stage)"].segment_comps * 2
            < rplus["Nearest(2-stage)"].segment_comps
        ), seed
        # 3. Range segment comparisons favour the R-trees.
        assert pmr["Range"].segment_comps > rplus["Range"].segment_comps, seed
        # 4. Polygon disk: R* at least matches R+ (the reversal).
        assert (
            rstar["Polygon(2-stage)"].disk_accesses
            <= rplus["Polygon(2-stage)"].disk_accesses
        ), seed

    write_result("seed_robustness.txt", "\n".join(lines))


def test_absolute_values_stable_across_seeds(benchmark, county_maps):
    """Per-query averages should agree within ~35 % between seeds (they
    are averages over >= 50 random queries on the same structure)."""
    runs = benchmark.pedantic(lambda: _runs(county_maps), rounds=1, iterations=1)
    baseline = runs[SEEDS[0]]
    for seed in SEEDS[1:]:
        for structure in ("PMR", "R+", "R*"):
            for workload in ("Point1", "Range", "Nearest(2-stage)"):
                a = baseline[structure][workload].disk_accesses
                b = runs[seed][structure][workload].disk_accesses
                assert b == pytest.approx(a, rel=0.35), (seed, structure, workload)