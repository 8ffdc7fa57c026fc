"""Service-layer benchmark: batch scheduling.

The claim the service subsystem makes measurable at this scale:
executing a shuffled query batch sorted by the Morton key of each
query's centroid costs fewer buffer-pool misses than arrival order -- on
every structure. (Concurrent serving -- throughput, latency, cache hit
rate, counter consistency -- is measured at the paper's scale by
``benchmarks/e2e``'s ``serve_read`` and ``durable_rw`` workloads.)
"""

from __future__ import annotations

import random

from repro.harness import build_structure
from repro.service import BatchExecutor, QueryEngine

from benchmarks.conftest import write_result


def test_morton_batching_beats_arrival_everywhere(benchmark, county_maps):
    def run():
        cecil = county_maps["cecil"]
        rng = random.Random(5)
        requests = []
        for _ in range(200):
            seg = cecil.segments[rng.randrange(len(cecil))]
            requests.append({"op": "point", "x": seg.x1, "y": seg.y1})
        rng.shuffle(requests)
        out = {}
        for name in ("R*", "R+", "PMR"):
            engine = QueryEngine(build_structure(name, cecil).index)
            comparison = BatchExecutor(engine).compare_orders(requests)
            out[name] = {
                "arrival": comparison["arrival"].disk_accesses,
                "morton": comparison["morton"].disk_accesses,
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "service_batch_order.txt",
        "\n".join(f"{k}: {v}" for k, v in out.items()),
    )
    for name, row in out.items():
        assert row["morton"] < row["arrival"], name
