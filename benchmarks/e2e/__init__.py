"""The repository's end-to-end benchmark (registered in ``BENCHMARK.json``).

Four seeded workloads at paper scale, checked against a brute-force scan,
with a per-layer breakdown. Start at ``README.md``; the entry point is
``run.py``.
"""
