"""The regression gate: compare a fresh bench record against a baseline.

Only deterministic counters gate.  Two record shapes are spoken:

* ``BENCH_e2e.json``, as ``benchmarks/e2e/run.py --workload paper_core
  --trace --out DIR`` writes it -- the paper-scale record.  Every metric
  of ``workloads.paper_core.per_layer`` whose unit is ``count`` gates
  (disk accesses per query, segment and bbox comparisons per op, index
  pages); the selection is read off the record's own units.  These are
  noise-free, so they compare at tolerance 0 whatever the caller asks.
* ``repro-shard-bench``, the routed record of :mod:`repro.bench.shard`:
  per-workload and total disk accesses, segment comparisons and bbox
  comparisons per structure.  A fresh value may exceed the baseline by
  at most ``tolerance`` (relative); its wall-clock percentiles are
  compared too but only ever *warn*.

Anything worse is a regression and the comparison fails.  Improvements
are reported but never fail (ratcheting the baseline down is a human
decision: commit the fresh record).  Timing metrics never gate, because
a CI runner is not a benchmark rig.

Records are only comparable when they are of the same kind and every
workload parameter matches exactly -- a mismatch is a usage error
(distinct from a regression) so it gets its own exit code.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.bench.shard import SHARD_BENCH_KIND, validate_shard_record
from repro.metric_names import PAPER_METRICS

#: The key of the paper-scale record in :data:`KINDS`. ``run.py`` writes
#: no ``kind`` field, so the record is recognised by its ``workloads``.
E2E_KIND = "BENCH_e2e"


class KindSpec(NamedTuple):
    """How one record kind validates, what must match for two records to
    be comparable, and which of its points gate/warn."""

    validator: Callable[[object], List[str]]
    params: Callable[[Dict[str, object]], Dict[str, object]]
    gate_points: Callable[[Dict[str, object]], object]
    wall_points: Callable[[Dict[str, object]], object]
    exact: bool  # gate at tolerance 0 regardless of the caller's


#: Comparison verdict exit codes (the CLI exits with these).
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_INCOMPARABLE = 2


def load_record(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _routed_gate_points(record: Dict[str, object]):
    """Yield (label, value) for every gated counter in a routed record."""
    structures = record["structures"]
    for name in sorted(structures):  # type: ignore[call-overload]
        entry = structures[name]  # type: ignore[index]
        for metric in PAPER_METRICS:
            yield f"{name}/totals/{metric}", int(entry["totals"][metric])
        for wname in sorted(entry["workloads"]):
            w = entry["workloads"][wname]
            for metric in PAPER_METRICS:
                yield f"{name}/{wname}/{metric}", int(w[metric])


def _routed_wall_points(record: Dict[str, object]):
    structures = record["structures"]
    for name in sorted(structures):  # type: ignore[call-overload]
        for wname in sorted(structures[name]["workloads"]):  # type: ignore[index]
            wall = structures[name]["workloads"][wname]["wall"]  # type: ignore[index]
            yield f"{name}/{wname}/p50_ms", float(wall["p50_ms"])


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


def _e2e_gate_points(record: Dict[str, object]):
    metrics = _paper_core(record)["metrics"]
    for name in sorted(metrics):  # type: ignore[call-overload]
        if metrics[name]["unit"] == "count":  # type: ignore[index]
            yield name, metrics[name]["value"]  # type: ignore[index]


#: Per-kind dispatch. The routed record pins its schema version and
#: ``params``; the paper-scale record its ``config`` block and seed.
KINDS: Dict[str, KindSpec] = {
    E2E_KIND: KindSpec(
        validate_e2e_record,
        lambda r: {**r["config"], "seed": _paper_core(r).get("seed")},  # type: ignore[dict-item]
        _e2e_gate_points,
        lambda r: (),
        exact=True,
    ),
    SHARD_BENCH_KIND: KindSpec(
        validate_shard_record,
        lambda r: r["params"],
        _routed_gate_points,
        _routed_wall_points,
        exact=False,
    ),
}


def _kind_of(record: object):
    if not isinstance(record, dict):
        return None
    return record.get("kind", E2E_KIND if "workloads" in record else None)


def compare_records(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    tolerance: float = 0.10,
) -> Tuple[int, List[str]]:
    """Return ``(exit code, report lines)``.

    ``tolerance`` is relative: a gated counter regresses when
    ``fresh > baseline * (1 + tolerance)``; a zero baseline tolerates
    only zero (any appearance of a brand-new cost is a regression).
    """
    lines: List[str] = []
    base_kind, fresh_kind = _kind_of(baseline), _kind_of(fresh)
    if base_kind != fresh_kind:
        lines.append(
            f"kind mismatch: baseline {base_kind!r} vs fresh {fresh_kind!r}; "
            f"records are not comparable"
        )
        return EXIT_INCOMPARABLE, lines
    spec = KINDS.get(base_kind)  # type: ignore[arg-type]
    if spec is None:
        lines.append(
            f"unknown record kind {base_kind!r} (this tool speaks "
            f"{sorted(KINDS)})"
        )
        return EXIT_INCOMPARABLE, lines
    for label, record in (("baseline", baseline), ("fresh", fresh)):
        problems = spec.validator(record)
        if problems:
            lines.append(f"{label} record is invalid:")
            lines.extend(f"  - {p}" for p in problems)
            return EXIT_INCOMPARABLE, lines
    base_params, fresh_params = spec.params(baseline), spec.params(fresh)
    if base_params != fresh_params:
        lines.append("workload params differ; records are not comparable:")
        for key in sorted(set(base_params) | set(fresh_params)):
            if base_params.get(key) != fresh_params.get(key):
                lines.append(
                    f"  {key}: baseline {base_params.get(key)!r} "
                    f"vs fresh {fresh_params.get(key)!r}"
                )
        return EXIT_INCOMPARABLE, lines
    if spec.exact:
        tolerance = 0.0

    base_points = dict(spec.gate_points(baseline))
    fresh_points = list(spec.gate_points(fresh))
    if set(base_points) != {label for label, _ in fresh_points}:
        lines.append("gated counter sets differ; records are not comparable")
        return EXIT_INCOMPARABLE, lines
    regressions: List[str] = []
    improvements: List[str] = []
    for label, value in fresh_points:
        base = base_points[label]
        limit = base * (1.0 + tolerance)
        if value > limit:
            pct = (value - base) / base * 100 if base else float("inf")
            regressions.append(
                f"  REGRESSION {label}: {base} -> {value} "
                f"(+{pct:.1f}% > {tolerance * 100:.0f}% tolerance)"
            )
        elif value < base:
            improvements.append(f"  improved {label}: {base} -> {value}")

    base_wall = dict(spec.wall_points(baseline))
    wall_warnings: List[str] = []
    for label, value in spec.wall_points(fresh):
        base = base_wall.get(label)
        if base is not None and base > 0 and value > base * (1.0 + tolerance):
            wall_warnings.append(
                f"  warn (wall-clock, not gating) {label}: "
                f"{base:.3f}ms -> {value:.3f}ms"
            )

    shas = (
        f" (baseline {baseline['git_sha']}, fresh {fresh['git_sha']})"
        if "git_sha" in baseline
        else ""  # run.py records the host, not the commit
    )
    lines.append(
        f"compared {len(base_points)} counters at "
        f"{tolerance * 100:.0f}% tolerance{shas}"
    )
    if regressions:
        lines.append(f"{len(regressions)} regression(s):")
        lines.extend(regressions)
    if improvements:
        lines.append(f"{len(improvements)} improvement(s):")
        lines.extend(improvements)
    if wall_warnings:
        lines.extend(wall_warnings)
    if not regressions:
        lines.append("OK: no counter regressed")
    return (EXIT_REGRESSION if regressions else EXIT_OK), lines
