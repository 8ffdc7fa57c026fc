"""Ablation over the extension structures.

**STR bulk loading** (production extension): packing beats dynamic
insertion on build disk accesses and page count while answering queries
identically.
"""

from __future__ import annotations

import random

from repro.core.queries import QuerySpec, execute_spec
from repro.core.rtree import RStarTree, bulk_load_str
from repro.data.query_points import random_windows
from repro.storage import StorageContext

from benchmarks.conftest import N_QUERIES, write_result


def test_str_bulk_loading(benchmark, county_maps):
    charles = county_maps["charles"]

    def run():
        out = {}
        rng = random.Random(56)
        windows = random_windows(N_QUERIES, rng, area_fraction=0.001)

        for label in ("dynamic", "packed"):
            ctx = StorageContext.create()
            idx = RStarTree(ctx)
            ids = ctx.load_segments(charles.segments)
            before = ctx.counters.snapshot()
            if label == "dynamic":
                for sid in ids:
                    idx.insert(sid)
            else:
                bulk_load_str(idx, ids)
            build_reads = ctx.counters.since(before).disk_reads

            ctx.pool.clear()
            before = ctx.counters.snapshot()
            results = sum(len(execute_spec(idx, QuerySpec.window(w))) for w in windows)
            delta = ctx.counters.since(before)
            out[label] = {
                "pages": idx.page_count(),
                "occupancy": idx.leaf_occupancy(),
                "build_reads": build_reads,
                "window_disk": delta.disk_reads / len(windows),
                "results": results,
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "extension_str_bulk.txt", "\n".join(f"{k}: {v}" for k, v in out.items())
    )
    assert out["packed"]["results"] == out["dynamic"]["results"]
    assert out["packed"]["pages"] < out["dynamic"]["pages"]
    assert out["packed"]["build_reads"] <= out["dynamic"]["build_reads"]
    assert out["packed"]["occupancy"] > out["dynamic"]["occupancy"]
