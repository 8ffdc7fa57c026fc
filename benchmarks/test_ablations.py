"""Ablations over the design choices DESIGN.md calls out.

Not in the paper's evaluation, but each isolates a decision the paper
discusses in prose:

* R-tree split policy (linear / quadratic / R*): Section 3's split
  discussion;
* buffer replacement policy (LRU / FIFO / Clock): Section 4 fixes LRU;
* the PMR per-segment-bounding-box variant: Section 6's 3-tuple
  discussion ("storage costs would be higher ... may not be worthwhile");
* the pure k-d-B-tree versus the hybrid: Section 3's claim that point
  searches fail earlier with leaf MBRs;
* the uniform grid versus the PMR quadtree on skewed data: Section 2.
"""

from __future__ import annotations

import random

import pytest

from repro.core import GuttmanRTree, KDBTree, PMRQuadtree, RPlusTree, UniformGrid
from repro.core.queries import QuerySpec, execute_spec
from repro.core.rtree import RStarTree, split_linear, split_quadratic
from repro.data.query_points import random_endpoint_queries, random_windows
from repro.harness import build_structure
from repro.storage import StorageContext
from repro.storage.policies import ClockPolicy, FIFOPolicy, LRUPolicy

from benchmarks.conftest import N_QUERIES, write_result


def _build(county_maps, factory):
    ctx = StorageContext.create()
    idx = factory(ctx)
    for sid in ctx.load_segments(county_maps["baltimore"].segments):
        idx.insert(sid)
    return idx


def test_split_policy_ablation(benchmark, county_maps):
    """R* split yields equal-or-better query disk behaviour than
    Guttman's linear and quadratic splits on window queries."""

    def run():
        out = {}
        for name, factory in (
            ("linear", lambda ctx: GuttmanRTree(ctx, split=split_linear)),
            ("quadratic", lambda ctx: GuttmanRTree(ctx, split=split_quadratic)),
            ("rstar", lambda ctx: RStarTree(ctx)),
        ):
            idx = _build(county_maps, factory)
            rng = random.Random(77)
            wins = random_windows(N_QUERIES, rng, area_fraction=0.002)
            idx.ctx.pool.clear()
            before = idx.ctx.counters.snapshot()
            for w in wins:
                execute_spec(idx, QuerySpec.window(w))
            delta = idx.ctx.counters.since(before)
            out[name] = {
                "pages": idx.page_count(),
                "window_disk": delta.disk_reads / len(wins),
                "window_bbox": delta.bbox_comps / len(wins),
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_split_policy.txt",
        "\n".join(f"{k}: {v}" for k, v in out.items()),
    )
    # The R* split prunes at least as well as linear on window searches.
    assert out["rstar"]["window_bbox"] <= out["linear"]["window_bbox"] * 1.1
    # And produces a tree no larger than quadratic's by a wide margin.
    assert out["rstar"]["pages"] <= out["quadratic"]["pages"] * 1.5


def test_buffer_policy_ablation(benchmark, county_maps):
    """LRU (the paper's choice) beats FIFO and is close to Clock on
    build disk accesses."""

    def run():
        out = {}
        for name, policy_cls in (
            ("LRU", LRUPolicy),
            ("FIFO", FIFOPolicy),
            ("Clock", ClockPolicy),
        ):
            built = build_structure(
                "PMR", county_maps["baltimore"], policy=policy_cls()
            )
            out[name] = built.build_metrics.disk_reads
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_buffer_policy.txt",
        "\n".join(f"{k}: {v}" for k, v in out.items()),
    )
    assert out["LRU"] <= out["FIFO"] * 1.05, out


def test_pmr_bbox_variant_ablation(benchmark, county_maps):
    """Section 6: storing a bounding box per PMR tuple cuts segment
    comparisons at a storage cost; the paper doubts it is worthwhile."""

    def run():
        plain = build_structure("PMR", county_maps["baltimore"])
        variant = build_structure(
            "PMR", county_maps["baltimore"], store_bboxes=True
        )
        rng = random.Random(78)
        queries = random_endpoint_queries(
            N_QUERIES, rng, county_maps["baltimore"]
        )
        out = {}
        for label, built in (("plain", plain), ("with_bboxes", variant)):
            built.ctx.pool.clear()
            before = built.ctx.counters.snapshot()
            for p, _ in queries:
                execute_spec(built.index, QuerySpec.point(p))
            delta = built.ctx.counters.since(before)
            out[label] = {
                "size_kb": built.size_kbytes,
                "segment_comps": delta.segment_comps / len(queries),
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_pmr_bbox.txt", "\n".join(f"{k}: {v}" for k, v in out.items())
    )
    assert out["with_bboxes"]["segment_comps"] <= out["plain"]["segment_comps"]
    assert out["with_bboxes"]["size_kb"] >= out["plain"]["size_kb"]


def test_kdb_vs_hybrid_ablation(benchmark, county_maps):
    """Section 3: the hybrid's leaf MBRs make point searches fail earlier
    than in the pure k-d-B-tree; building and storage match."""

    def run():
        out = {}
        rng = random.Random(79)
        queries = random_endpoint_queries(
            N_QUERIES, rng, county_maps["baltimore"]
        )
        for name, factory in (
            ("hybrid_R+", lambda ctx: RPlusTree(ctx)),
            ("pure_kdB", lambda ctx: KDBTree(ctx)),
        ):
            idx = _build(county_maps, factory)
            idx.ctx.pool.clear()
            before = idx.ctx.counters.snapshot()
            for p, _ in queries:
                execute_spec(idx, QuerySpec.point(p))
            delta = idx.ctx.counters.since(before)
            out[name] = {
                "pages": idx.page_count(),
                "segment_comps": delta.segment_comps / len(queries),
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_kdb.txt", "\n".join(f"{k}: {v}" for k, v in out.items())
    )
    assert out["pure_kdB"]["pages"] == out["hybrid_R+"]["pages"]
    assert out["pure_kdB"]["segment_comps"] > out["hybrid_R+"]["segment_comps"]


def test_uniform_grid_vs_pmr_on_skewed_data(benchmark, county_maps):
    """Section 2: the uniform grid suits uniform data; quadtrees adapt to
    the skewed distributions real maps have."""

    def run():
        # Baltimore is the most skewed county (dense core, sparse fringe).
        pmr = build_structure("PMR", county_maps["baltimore"])
        grid = build_structure("grid", county_maps["baltimore"], granularity=32)
        rng = random.Random(80)
        p = random_endpoint_queries(N_QUERIES, rng, county_maps["baltimore"])
        out = {}
        for label, built in (("PMR", pmr), ("grid", grid)):
            built.ctx.pool.clear()
            before = built.ctx.counters.snapshot()
            for point, _ in p:
                execute_spec(built.index, QuerySpec.nearest(point))
            delta = built.ctx.counters.since(before)
            out[label] = {
                "size_kb": built.size_kbytes,
                "nn_segment_comps": delta.segment_comps / len(p),
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_grid.txt", "\n".join(f"{k}: {v}" for k, v in out.items())
    )
    # The grid's fixed cells hold many segments in the dense core, so its
    # nearest-neighbour search compares more segments than the PMR's
    # adaptive buckets.
    assert out["grid"]["nn_segment_comps"] > out["PMR"]["nn_segment_comps"]
