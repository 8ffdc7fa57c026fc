"""Scalar window search vs the vector window kernel: where it crosses over.

    PYTHONPATH=src python benchmarks/vector_crossover.py   # ~1.5 min

The paper configuration (charles at scale 1.0, 1 KiB pages, 16-page
pool), mirrors warm, one process. Every figure is scalar time / vector
time over the same seeded windows -- above 1 the vector kernel is the
faster one -- taken as the best of two passes that alternate scalar,
vector, scalar, vector, each pass from a cleared pool. Answers are
compared on the way. Only windows are timed: every other op the kernel
runs is the scalar search itself. EXPERIMENTS.md ("Vector backend:
where it crosses over") quotes the output committed as
``benchmarks/results/vector_crossover.txt``.
"""

import random
import statistics
import time

from repro.core.backends import resolve_backend
from repro.core.queries.spec import QuerySpec
from repro.data import generate_county
from repro.geometry import Rect
from repro.harness.experiment import build_structure
from repro.harness.workloads import QueryWorkloads

STRUCTURES = ("R*", "R+", "PMR")
PAPER_WINDOW = 0.0001  # the paper's range query: 0.01 % of the map's area


def same_answer(a, b) -> bool:
    return sorted(a) == sorted(b)  # id lists come in traversal order


def speedup(index, scalar_pass, vector_pass) -> float:
    best = {scalar_pass: float("inf"), vector_pass: float("inf")}
    for _ in range(2):
        for timed in (scalar_pass, vector_pass):
            index.ctx.pool.clear()
            start = time.perf_counter()
            timed()
            best[timed] = min(best[timed], time.perf_counter() - start)
    return best[scalar_pass] / best[vector_pass]


def main() -> None:
    map_data = generate_county("charles", scale=1.0)
    built = {
        name: build_structure(name, map_data, page_size=1024, pool_pages=16).index
        for name in STRUCTURES
    }
    scalar, vector = resolve_backend(None), resolve_backend("vector")
    if vector.name != "vector":
        raise SystemExit("numpy is not installed: there is no vector kernel to time")
    segments = map_data.segments
    xs = [x for s in segments for x in (s.x1, s.x2)]
    ys = [y for s in segments for y in (s.y1, s.y2)]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    print(f"# charles scale 1.0: {len(segments)} segments, extent {extent:.0f}")

    def row(label, specs, batch=None):
        """One line: the ratio on each structure for ``specs``, run one
        query at a time, or fused ``batch`` at a time on the vector side."""
        cells = []
        for name, index in built.items():
            for spec in specs[:3]:  # build the mirrors a warm caller holds
                if not same_answer(vector.run(index, spec), scalar.run(index, spec)):
                    raise SystemExit(f"{name}: scalar and vector disagree on {spec}")
            if batch is None:
                ratio = speedup(
                    index,
                    lambda: [scalar.run(index, spec) for spec in specs],
                    lambda: [vector.run(index, spec) for spec in specs],
                )
            else:
                groups = [specs[i:i + batch] for i in range(0, len(specs), batch)]
                ratio = speedup(
                    index,
                    lambda: [scalar.run(index, spec) for spec in specs],
                    lambda: [vector.run_batch(index, group) for group in groups],
                )
            cells.append(f"{name} {ratio:5.2f}")
        print(f"{label:<38}" + "   ".join(cells), flush=True)

    print("\n# one window query at a time, by window side (share of the extent)")
    rng = random.Random(1992)
    for side, n in ((0.01, 300), (0.03, 200), (0.10, 60), (0.45, 12)):
        half = extent * side / 2
        specs = []
        for _ in range(n):
            seg = segments[rng.randrange(len(segments))]
            cx, cy = (seg.x1 + seg.x2) / 2, (seg.y1 + seg.y2) / 2
            specs.append(QuerySpec.window(Rect(cx - half, cy - half, cx + half, cy + half)))
        rows = statistics.mean(len(scalar.run(built["R*"], spec)) for spec in specs)
        row(f"side {side:.0%} ({rows:.0f} rows, n={n})", specs)

    print("\n# one query at a time, the paper's window")
    load = QueryWorkloads.generate(
        map_data, built["PMR"], 300, seed=1992, window_area_fraction=PAPER_WINDOW
    )
    row("window 0.01 % area (n=300)", [QuerySpec.window(w) for w in load.windows])

    print("\n# fused run_batch against the scalar loop, 1 000 queries, by batch size")
    load = QueryWorkloads.generate(
        map_data, built["PMR"], 1000, seed=7, window_area_fraction=PAPER_WINDOW
    )
    windows = [QuerySpec.window(w) for w in load.windows]
    for batch in (2, 16, 64, 256, 1000):
        row(f"window 0.01 % area, batches of {batch}", windows, batch)


if __name__ == "__main__":
    main()
