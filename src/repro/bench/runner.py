"""The ``structures -> workloads -> counters`` record: schema and I/O.

The routed bench (:mod:`repro.bench.shard`) emits this shape: per
structure, per workload, the paper's three deterministic counters plus
wall-clock percentiles that ride along for trending only.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence

from repro.metric_names import PAPER_METRICS

#: Bump on any incompatible change to the record layout; the comparator
#: refuses to gate across versions.
BENCH_SCHEMA_VERSION = 1


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending list (nearest-rank)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _wall_summary(wall_ms: List[float]) -> Dict[str, float]:
    ordered = sorted(wall_ms)
    return {
        "p50_ms": round(percentile(ordered, 0.50), 4),
        "p90_ms": round(percentile(ordered, 0.90), 4),
        "max_ms": round(percentile(ordered, 1.0), 4),
    }


def validate_record(
    record: object,
    kind: str,
    required_structures: Sequence[str],
    required_workloads: Sequence[str],
    param_keys: Sequence[str],
) -> List[str]:
    """Schema check; returns a list of problems (empty means valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("kind") != kind:
        problems.append(f"kind must be {kind!r}, got {record.get('kind')!r}")
    if record.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, "
            f"got {record.get('schema_version')!r}"
        )
    if not isinstance(record.get("git_sha"), str):
        problems.append("git_sha must be a string")
    params = record.get("params")
    if not isinstance(params, dict):
        problems.append("params must be an object")
    else:
        for key in param_keys:
            if key not in params:
                problems.append(f"params missing {key!r}")
    structures = record.get("structures")
    if not isinstance(structures, dict):
        return problems + ["structures must be an object"]
    for name in required_structures:
        entry = structures.get(name)
        if not isinstance(entry, dict):
            problems.append(f"structures missing {name!r}")
            continue
        totals = entry.get("totals")
        if not isinstance(totals, dict):
            problems.append(f"{name}: totals must be an object")
        else:
            for metric in PAPER_METRICS:
                if not isinstance(totals.get(metric), int):
                    problems.append(f"{name}: totals.{metric} must be an int")
        workload_out = entry.get("workloads")
        if not isinstance(workload_out, dict):
            problems.append(f"{name}: workloads must be an object")
            continue
        for wname in required_workloads:
            w = workload_out.get(wname)
            if not isinstance(w, dict):
                problems.append(f"{name}: workloads missing {wname!r}")
                continue
            for metric in PAPER_METRICS:
                if not isinstance(w.get(metric), int):
                    problems.append(f"{name}/{wname}: {metric} must be an int")
            wall = w.get("wall")
            if not isinstance(wall, dict) or not all(
                isinstance(wall.get(k), (int, float))
                for k in ("p50_ms", "p90_ms", "max_ms")
            ):
                problems.append(f"{name}/{wname}: wall percentiles malformed")
    return problems


def write_record(record: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
