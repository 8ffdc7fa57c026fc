"""The regression gate: compare a fresh bench record against a baseline.

Only deterministic counters gate, and they gate exactly.  The one record
shape spoken is ``BENCH_e2e.json``, as ``benchmarks/e2e/run.py --workload
paper_core --trace --out DIR`` writes it -- the paper-scale record.
Every metric of ``workloads.paper_core.per_layer`` whose unit is
``count`` gates (disk accesses per query, segment and bbox comparisons
per op, index pages); the selection is read off the record's own units.
These are noise-free, so a fresh value above the baseline's is a
regression, and a brand-new cost over a zero baseline is one too.

Improvements are reported but never fail (ratcheting the baseline down
is a human decision: commit the fresh record).  Timing metrics never
gate, because a CI runner is not a benchmark rig.

Records are only comparable when both are valid ``BENCH_e2e`` records
and their ``config`` and seed match exactly -- a mismatch is a usage
error (distinct from a regression) so it gets its own exit code.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: Comparison verdict exit codes (the CLI exits with these).
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_INCOMPARABLE = 2


def load_record(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _paper_core(record: Dict[str, object]) -> Dict[str, object]:
    return record["workloads"]["paper_core"]["per_layer"]  # type: ignore[index]


def validate_e2e_record(record: object) -> List[str]:
    """Schema check for the part of ``BENCH_e2e.json`` the gate reads."""
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    problems: List[str] = []
    if not isinstance(record.get("config"), dict):
        problems.append("config must be an object")
    entry: object = record
    for key in ("workloads", "paper_core", "per_layer"):
        entry = entry.get(key) if isinstance(entry, dict) else None
    metrics = entry.get("metrics") if isinstance(entry, dict) else None
    if not isinstance(metrics, dict):
        return problems + [
            "workloads.paper_core.per_layer.metrics missing (write it with: "
            "benchmarks/e2e/run.py --workload paper_core --trace --out DIR)"
        ]
    for name, m in metrics.items():
        if not (
            isinstance(m, dict)
            and isinstance(m.get("unit"), str)
            and isinstance(m.get("value"), (int, float))
        ):
            problems.append(f"paper_core: {name} must be {{value: number, unit: str}}")
    if not problems and not any(m["unit"] == "count" for m in metrics.values()):
        problems.append("paper_core: no count-unit metric to gate on")
    if entry.get("failed") != 0:
        problems.append(f"paper_core: {entry.get('failed')!r} failed operations")
    return problems


def gate_points(record: Dict[str, object]) -> Dict[str, float]:
    """Every gated counter of a valid record, by metric name."""
    metrics = _paper_core(record)["metrics"]
    return {
        name: m["value"]  # type: ignore[index]
        for name, m in sorted(metrics.items())  # type: ignore[union-attr]
        if m["unit"] == "count"  # type: ignore[index]
    }


def _params(record: Dict[str, object]) -> Dict[str, object]:
    seed = _paper_core(record).get("seed")
    return {**record["config"], "seed": seed}  # type: ignore[dict-item]


def compare_records(
    baseline: Dict[str, object], fresh: Dict[str, object]
) -> Tuple[int, List[str]]:
    """Return ``(exit code, report lines)``."""
    lines: List[str] = []
    for label, record in (("baseline", baseline), ("fresh", fresh)):
        problems = validate_e2e_record(record)
        if problems:
            lines.append(f"{label} record is invalid:")
            lines.extend(f"  - {p}" for p in problems)
            return EXIT_INCOMPARABLE, lines
    base_params, fresh_params = _params(baseline), _params(fresh)
    if base_params != fresh_params:
        lines.append("workload params differ; records are not comparable:")
        for key in sorted(set(base_params) | set(fresh_params)):
            if base_params.get(key) != fresh_params.get(key):
                lines.append(
                    f"  {key}: baseline {base_params.get(key)!r} "
                    f"vs fresh {fresh_params.get(key)!r}"
                )
        return EXIT_INCOMPARABLE, lines

    base_points, fresh_points = gate_points(baseline), gate_points(fresh)
    if set(base_points) != set(fresh_points):
        lines.append("gated counter sets differ; records are not comparable")
        return EXIT_INCOMPARABLE, lines
    regressions: List[str] = []
    improvements: List[str] = []
    for label, value in fresh_points.items():
        base = base_points[label]
        if value > base:
            pct = (value - base) / base * 100 if base else float("inf")
            regressions.append(f"  REGRESSION {label}: {base} -> {value} (+{pct:.1f}%)")
        elif value < base:
            improvements.append(f"  improved {label}: {base} -> {value}")

    lines.append(f"compared {len(base_points)} counters at 0% tolerance")
    if regressions:
        lines.append(f"{len(regressions)} regression(s):")
        lines.extend(regressions)
    if improvements:
        lines.append(f"{len(improvements)} improvement(s):")
        lines.extend(improvements)
    if not regressions:
        lines.append("OK: no counter regressed")
    return (EXIT_REGRESSION if regressions else EXIT_OK), lines
