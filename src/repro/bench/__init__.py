"""The counter gate: a ``BENCH_e2e.json`` record against a committed one.

The repo has one benchmark, ``benchmarks/e2e/run.py`` (declared in
``BENCHMARK.json``), which runs at the paper's configuration: ~50 000
segments, 1 KiB pages, a 16-page pool, 1 000 queries per type, windows
of 0.01 % of the map area.  This package is the gate over what it
records::

    python3 benchmarks/e2e/run.py --workload paper_core --trace --out out/
    python -m repro bench --compare \
        benchmarks/results/BENCH_paper_core.json out/BENCH_e2e.json

compares every ``count``-unit metric of the record's
``workloads.paper_core.per_layer`` (disk accesses per query, segment and
bbox comparisons per op, index pages) against the committed record at
tolerance 0 -- they are deterministic counters, so any drift is a change
in behaviour.  Timing metrics are recorded but never gate.  Exit 1 on a
regression, 2 when the records are not comparable (``config`` differs,
no ``paper_core`` per-layer run, not a ``BENCH_e2e`` record).

The routed counters have no runner here: ``tests/test_bench_shard.py``
drives five seeded workloads through a shard router and asserts they
equal ``benchmarks/results/BENCH_shard_baseline.json``.
"""

from repro.bench.compare import compare_records, load_record

__all__ = ["compare_records", "load_record"]
