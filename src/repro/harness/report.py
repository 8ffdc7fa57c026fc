"""The reproduction record: every county measured once, then rendered.

``measure_county`` builds R*, R+ and the PMR quadtree over one county
once, at the paper's 1 KiB pages and 16-page pool, and takes everything
the paper reports from those builds while they are alive: the county's
Table 1 row, its seven workload rows (Table 2, Figures 7-9) and its
occupancy row (Concluding Remarks). Only the PMR thresholds other than
the default and Figure 6's other page/pool cells need builds of their
own. ``measure`` runs it over the counties into one JSON-able record;
``repro.harness.tables.render`` is the only thing that turns a record
into markdown. ``python -m repro report --out REPORT.md`` writes both
(the record as ``REPORT.json``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.data import COUNTY_NAMES, generate_county
from repro.data.generator import MapData
from repro.harness.experiment import BuiltStructure, build_structure
from repro.harness.tables import render
from repro.harness.workloads import QueryStats, QueryWorkloads, run_workloads
from repro.metric_names import DISK_READS, DISK_WRITES

STRUCTURES = ("R*", "R+", "PMR")
PAGE_SIZE = 1024
POOL_PAGES = 16
#: Seeds the query workloads of every county.
SEED = 1992
#: The PMR splitting thresholds of the occupancy analysis.
THRESHOLDS = (2, 4, 8, 16, 32, 64)
#: Figure 6: the structures and (page size, pool pages) grid it sweeps.
SWEPT = ("R+", "PMR")
PAGE_SIZES = (512, 1024, 2048, 4096)
POOL_SIZES = (8, 16, 32)


def query_stats(
    built: Dict[str, BuiltStructure],
    n_queries: int,
    seed: int = 1992,
    window_area_fraction: float = 0.0001,
) -> Dict[str, Dict[str, QueryStats]]:
    """``{structure: {workload: stats}}``: every structure answers the
    same queries, whose 2-stage points come from the PMR decomposition."""
    pmr = built["PMR"]
    workloads = QueryWorkloads.generate(
        pmr.map_data,
        pmr.index,
        n_queries,
        seed=seed,
        window_area_fraction=window_area_fraction,
    )
    return {name: run_workloads(b, workloads) for name, b in built.items()}


def _figure6_cells(map_data: MapData, built: Dict[str, BuiltStructure]):
    """Build disk accesses over the page/pool grid; the (1024, 16) cells
    are the county's own builds."""
    cells = []
    for name in SWEPT:
        for page_size in PAGE_SIZES:
            for pool_pages in POOL_SIZES:
                if (page_size, pool_pages) == (PAGE_SIZE, POOL_PAGES):
                    b = built[name]
                else:
                    b = build_structure(
                        name, map_data, page_size=page_size, pool_pages=pool_pages
                    )
                cells.append(
                    {
                        "structure": name,
                        "page_size": page_size,
                        "pool_pages": pool_pages,
                        DISK_READS: b.build_metrics.disk_reads,
                        "pages": b.index.page_count(),
                    }
                )
    return cells


def measure_county(
    map_data: MapData,
    n_queries: int,
    window_area_fraction: float = 0.0001,
    figure6: bool = False,
) -> Dict[str, Any]:
    """One county's ``table1`` row, ``workloads`` rows and ``occupancy``
    row (plus its ``figure6`` cells if asked), each structure built once."""
    built = {
        name: build_structure(
            name, map_data, page_size=PAGE_SIZE, pool_pages=POOL_PAGES
        )
        for name in STRUCTURES
    }
    table1 = {
        "county": map_data.name,
        "segments": len(map_data),
        "pages": {s: b.index.page_count() for s, b in built.items()},
        DISK_READS: {s: b.build_metrics.disk_reads for s, b in built.items()},
        DISK_WRITES: {s: b.build_metrics.disk_writes for s, b in built.items()},
        "seconds": {s: b.build_seconds for s, b in built.items()},
    }
    stats = query_stats(built, n_queries, SEED, window_area_fraction)
    workloads = [asdict(s) for by_w in stats.values() for s in by_w.values()]

    pmr = built["PMR"]
    buckets = []
    for threshold in THRESHOLDS:
        if threshold == pmr.index.threshold:
            b = pmr
        else:
            b = build_structure(
                "PMR",
                map_data,
                page_size=PAGE_SIZE,
                pool_pages=POOL_PAGES,
                threshold=threshold,
            )
        buckets.append(
            {
                "threshold": threshold,
                "occupancy": b.index.bucket_occupancy(),
                "buckets": len(b.index.leaf_blocks()),
                "pages": b.index.page_count(),
            }
        )
    occupancy = {
        "county": map_data.name,
        "R*": built["R*"].index.leaf_occupancy(),
        "R+": built["R+"].index.leaf_occupancy(),
        "PMR": buckets,
    }
    out = {"table1": table1, "workloads": workloads, "occupancy": occupancy}
    if figure6:
        out["figure6"] = _figure6_cells(map_data, built)
    return out


def measure(
    scale: float = 0.05,
    n_queries: int = 100,
    counties: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The record: every county measured by ``measure_county``, Figure 6
    on cecil (or the first county when cecil is not among them)."""
    started = time.perf_counter()
    names = list(counties) if counties is not None else list(COUNTY_NAMES)
    swept = "cecil" if "cecil" in names else names[0]
    record: Dict[str, Any] = {
        "config": {
            "counties": names,
            "scale": scale,
            "queries": n_queries,
            "seed": SEED,
            "page_size": PAGE_SIZE,
            "pool_pages": POOL_PAGES,
        },
        "counties": {},
    }
    for name in names:
        record["counties"][name] = measure_county(
            generate_county(name, scale=scale),
            n_queries,
            window_area_fraction=min(0.0001 / scale, 0.01),
            figure6=name == swept,
        )
    record["figure6"] = {
        "county": swept,
        "cells": record["counties"][swept].pop("figure6"),
    }
    record["elapsed_seconds"] = time.perf_counter() - started
    return record


def full_report(
    scale: float = 0.05,
    n_queries: int = 100,
    counties: Optional[Sequence[str]] = None,
    out_path: Optional[Union[str, Path]] = None,
) -> str:
    """Measure every county and render the record as markdown.

    With ``out_path`` the markdown is written there and the record beside
    it with the suffix ``.json``. At the default scale this takes on the
    order of a minute; at ``scale=1.0`` expect tens of minutes.
    """
    record = measure(scale=scale, n_queries=n_queries, counties=counties)
    text = render(record)
    if out_path is not None:
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        out.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    return text
