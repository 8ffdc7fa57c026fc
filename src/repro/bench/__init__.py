"""The counter gate: ``BENCH_*.json`` records and their comparison.

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
no ``paper_core`` per-layer run, different kinds).

``python -m repro bench --routed`` is the one runner kept here, because
nothing in ``benchmarks/e2e`` yields deterministic routed counters yet
(``routed_mixed`` is time-boxed): one shard set per structure, five
workloads through the scatter-gather router, counters summed across
shards (:mod:`repro.bench.shard`, kind ``repro-shard-bench``).  The CI
``shard-smoke`` job gates it against
``benchmarks/results/BENCH_shard_baseline.json`` with the same comparer.
"""

from repro.bench.compare import compare_records, load_record
from repro.bench.runner import BENCH_SCHEMA_VERSION, write_record
from repro.bench.shard import (
    SHARD_DEFAULT_PARAMS,
    run_shard_bench,
    validate_shard_record,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SHARD_DEFAULT_PARAMS",
    "compare_records",
    "load_record",
    "run_shard_bench",
    "validate_shard_record",
    "write_record",
]
