"""Ablations over the design choices DESIGN.md calls out.

Not in the paper's evaluation, but each isolates a decision the paper
discusses in prose:

* R-tree split policy (linear / quadratic / R*): Section 3's split
  discussion;
* the PMR per-segment-bounding-box variant: Section 6's 3-tuple
  discussion ("storage costs would be higher ... may not be worthwhile").
"""

from __future__ import annotations

import random

import pytest

from repro.core import GuttmanRTree
from repro.core.queries import QuerySpec, execute_spec
from repro.core.rtree import RStarTree, split_linear, split_quadratic
from repro.data.query_points import random_endpoint_queries, random_windows
from repro.harness import build_structure
from repro.storage import StorageContext

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
