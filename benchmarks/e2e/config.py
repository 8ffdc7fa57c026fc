"""The benchmark's fixed configuration.

``PAPER`` is the only configuration a recorded number may come from: the
map, page size and pool size are the paper's and are never scaled down --
when time is short, request counts shrink instead. ``QUICK`` exists for
``test_e2e_bench.py`` alone, which checks the benchmark's plumbing, not
the system's speed.
"""

from __future__ import annotations

import dataclasses
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper_core", "serve_read", "durable_rw", "routed_mixed")
STRUCTURES = ("R*", "R+", "PMR")
#: Metric-name spelling of each structure.
SLUG = {"R*": "rstar", "R+": "rplus", "PMR": "pmr"}
QUERY_TYPES = ("point", "point2", "nearest", "window", "polygon")


@dataclasses.dataclass(frozen=True)
class Config:
    county: str = "charles"
    scale: float = 1.0
    page_size: int = 1024
    pool_pages: int = 16
    cache_size: int = 256
    group_commit: int = 1
    n_shards: int = 4
    connections: int = 2  # load comes from one process; nproc is 2
    #: paper_core: queries of each cheap type, and polygon queries, per pass.
    queries_per_type: int = 1000
    polygon_queries: int = 100
    #: Service requests answered before the timed phase starts.
    warmup_requests: int = 1000
    #: Read responses re-asked and checked against the linear scan.
    oracle_checks: int = 300
    #: Requests replayed up the ladder of entry points in a traced run.
    ladder_requests: int = 2000
    #: serve_read draws its sites Zipf(1.1) from this many fixed endpoints,
    #: so the 256-entry result cache and the 16-page pool both see reuse.
    zipf_sites: int = 4096
    zipf_s: float = 1.1
    #: Window side as a share of the map extent (service workloads).
    window_share: float = 0.03
    #: Times the system is started to measure set-up (median reported).
    setup_trials: int = 3
    #: Restarts after SIGKILL, each from a copy of the killed store.
    crash_restarts: int = 3
    #: Length of the equal consecutive slices a timed phase is cut into
    #: (at least four of them); a timing is the good-side quartile of its
    #: per-slice values (see ``load.steady``).
    slice_seconds: float = 1.0
    #: Length of one sample of the reference service (see ``reference.py``).
    reference_seconds: float = 0.4


PAPER = Config()

QUICK = dataclasses.replace(
    PAPER,
    scale=0.02,
    queries_per_type=40,
    polygon_queries=5,
    warmup_requests=50,
    oracle_checks=40,
    ladder_requests=60,
    zipf_sites=256,
    setup_trials=1,
    crash_restarts=1,
)
