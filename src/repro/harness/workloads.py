"""The seven query workloads measured in Table 2 and Figures 7-9.

Each workload runs a batch of queries against a built structure and
reports the *average per query* of the paper's three metrics. The buffer
pool is cold-started once per workload and stays warm across the queries
of the batch, as in any sequence of independent queries against a live
system (this is why the paper's per-query disk accesses are far below the
tree heights).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.pmr import PMRQuadtree
from repro.core.queries.spec import QuerySpec, execute_spec
from repro.data.generator import MapData
from repro.data.query_points import (
    random_endpoint_queries,
    random_windows,
    two_stage_points,
    uniform_points,
)
from repro.geometry import Point, Rect
from repro.harness.experiment import BuiltStructure

WORKLOAD_NAMES: Tuple[str, ...] = (
    "Point1",
    "Point2",
    "Nearest(2-stage)",
    "Nearest(1-stage)",
    "Polygon(2-stage)",
    "Polygon(1-stage)",
    "Range",
)


@dataclass
class QueryStats:
    """Average per-query metrics for one workload on one structure."""

    workload: str
    structure: str
    queries: int
    disk_accesses: float
    segment_comps: float
    bbox_comps: float

    def metric(self, name: str) -> float:
        return getattr(self, name)


@dataclass
class QueryWorkloads:
    """One shared set of query inputs, used for every structure.

    The 2-stage points are drawn from the PMR quadtree's decomposition
    (the paper's data-correlated model) and then reused verbatim for the
    R-trees so all structures answer the same questions.
    """

    endpoint_queries: List[Tuple[Point, int]]
    two_stage: List[Point]
    one_stage: List[Point]
    windows: List[Rect]

    @classmethod
    def generate(
        cls,
        map_data: MapData,
        pmr: PMRQuadtree,
        n_queries: int,
        seed: int = 1992,
        window_area_fraction: float = 0.0001,
    ) -> "QueryWorkloads":
        """``window_area_fraction`` is the paper's 0.01 % at full map
        scale; run a map built at a reduced scale with ``0.0001 / scale``
        so a window covers a comparable amount of road network."""
        rng = random.Random(seed)
        return cls(
            endpoint_queries=random_endpoint_queries(n_queries, rng, map_data),
            two_stage=two_stage_points(n_queries, rng, pmr),
            one_stage=uniform_points(n_queries, rng, map_data.world_size),
            windows=random_windows(
                n_queries,
                rng,
                map_data.world_size,
                area_fraction=window_area_fraction,
            ),
        )


def _measure(built: BuiltStructure, workload: str, runs) -> QueryStats:
    built.ctx.pool.clear()
    before = built.ctx.counters.snapshot()
    n = 0
    for run in runs:
        run()
        n += 1
    delta = built.ctx.counters.since(before)
    return QueryStats(
        workload=workload,
        structure=built.name,
        queries=n,
        disk_accesses=delta.disk_reads / max(n, 1),
        segment_comps=delta.segment_comps / max(n, 1),
        bbox_comps=delta.bbox_comps / max(n, 1),
    )


def run_point1(
    built: BuiltStructure, queries: Sequence[Tuple[Point, int]]
) -> QueryStats:
    idx = built.index
    return _measure(
        built,
        "Point1",
        ((lambda p=p: execute_spec(idx, QuerySpec.point(p))) for p, _ in queries),
    )


def run_point2(
    built: BuiltStructure, queries: Sequence[Tuple[Point, int]]
) -> QueryStats:
    idx = built.index
    return _measure(
        built,
        "Point2",
        (
            (lambda p=p, s=s: execute_spec(idx, QuerySpec.other_endpoint(p, s)))
            for p, s in queries
        ),
    )


def run_nearest(
    built: BuiltStructure, points: Sequence[Point], label: str
) -> QueryStats:
    idx = built.index
    return _measure(
        built,
        label,
        ((lambda p=p: execute_spec(idx, QuerySpec.nearest(p, 1))) for p in points),
    )


def run_polygon(
    built: BuiltStructure, points: Sequence[Point], label: str
) -> QueryStats:
    idx = built.index
    return _measure(
        built,
        label,
        ((lambda p=p: execute_spec(idx, QuerySpec.polygon(p))) for p in points),
    )


def run_range(built: BuiltStructure, windows: Sequence[Rect]) -> QueryStats:
    idx = built.index
    return _measure(
        built,
        "Range",
        ((lambda w=w: execute_spec(idx, QuerySpec.window(w))) for w in windows),
    )


def run_workloads(
    built: BuiltStructure, workloads: QueryWorkloads
) -> Dict[str, QueryStats]:
    """All seven workloads against one built structure, in table order."""
    results = [
        run_point1(built, workloads.endpoint_queries),
        run_point2(built, workloads.endpoint_queries),
        run_nearest(built, workloads.two_stage, "Nearest(2-stage)"),
        run_nearest(built, workloads.one_stage, "Nearest(1-stage)"),
        run_polygon(built, workloads.two_stage, "Polygon(2-stage)"),
        run_polygon(built, workloads.one_stage, "Polygon(1-stage)"),
        run_range(built, workloads.windows),
    ]
    return {r.workload: r for r in results}
