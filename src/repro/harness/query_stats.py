"""Per-county query measurements (Table 2 is the Charles county instance).

For each structure, the paper measures the averages of disk accesses,
segment comparisons, and bounding box (or bucket) computations over 1000
queries of each of the seven workloads. All structures answer the same
query instances; the 2-stage points come from the PMR decomposition as in
the paper.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.data.generator import MapData
from repro.harness.experiment import build_structure
from repro.harness.workloads import QueryStats, QueryWorkloads, run_workloads


def map_query_stats(
    map_data: MapData,
    structures: Sequence[str] = ("PMR", "R+", "R*"),
    n_queries: int = 200,
    page_size: int = 1024,
    pool_pages: int = 16,
    seed: int = 1992,
    window_area_fraction: float = 0.0001,
) -> Dict[str, Dict[str, QueryStats]]:
    """``{structure: {workload: stats}}`` for one map.

    A PMR quadtree is always built (it defines the 2-stage query points);
    it is measured only if "PMR" is among ``structures``.
    """
    pmr_built = build_structure(
        "PMR", map_data, page_size=page_size, pool_pages=pool_pages
    )
    workloads = QueryWorkloads.generate(
        map_data,
        pmr_built.index,
        n_queries,
        seed=seed,
        window_area_fraction=window_area_fraction,
    )

    out: Dict[str, Dict[str, QueryStats]] = {}
    for name in structures:
        if name == "PMR":
            built = pmr_built
        else:
            built = build_structure(
                name, map_data, page_size=page_size, pool_pages=pool_pages
            )
        out[name] = run_workloads(built, workloads)
    return out
