"""The benchmark's one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out DIR]

(or ``python -m benchmarks.e2e.run``). Runs one workload, or all four,
at the fixed paper-scale configuration; checks answers against a linear
scan; prints every metric as ``workload metric value unit`` and, last,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--trace`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with it, the per-layer ones (0 where a workload does
not run a layer). Exits non-zero when any answer was wrong or any
operation failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

sys.dont_write_bytecode = True

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    __package__ = "benchmarks.e2e"

from .config import BENCHMARK_JSON, PAPER, QUICK, SRC, WORKLOADS  # noqa: E402

sys.path.insert(0, SRC)

def load_registry() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, cfg, seed: int, seconds: float, trace: bool, out_dir: str):
    """One workload, one mode; returns its ``Outcome``."""
    from . import core, service
    from .layers import Spans

    spans = Spans()
    if name == "paper_core":
        outcome = core.run(cfg, seed, seconds, trace, spans)
    else:
        outcome = service.run(name, cfg, seed, seconds, trace, spans)
    if trace:
        spans.write(os.path.join(out_dir, f"trace-{name}.json"))
    return outcome


def report(name: str, outcome, registry: dict, trace: bool) -> dict:
    """Print the metric lines; returns the driver's result object."""
    section = registry["per_layer" if trace else "end_to_end"]
    measured = outcome.per_layer if trace else outcome.end_to_end
    unknown = set(measured) - {m["name"] for m in section}
    if not trace:
        unknown -= {m["name"] for m in registry["per_layer"]}
    if unknown:
        raise RuntimeError(f"measured but not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in section:
        value = float(measured.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if metric["name"] not in measured:
            continue  # a layer this workload does not run: 0 in the JSON, no line
        count = outcome.samples.get(metric["name"])
        tail = f"  # n={count}" if count is not None else ""
        print(f"{name} {metric['name']} {value:.6g} {metric['unit']}{tail}")
    if not trace:
        for extra in ("build_s", "cold_start_s"):
            if extra in outcome.per_layer:
                print(f"{name} {extra} {outcome.per_layer[extra]:.6g} s"
                      f"  # n={outcome.samples.get(extra, 1)}")
        for extra, (value, unit) in outcome.extras.items():
            print(f"{name} {extra} {value:.6g} {unit}")
        # A share of operations, 0 on a correct run, so it cannot be a
        # registered (never-zero) metric; the JSON carries the counts.
        print(f"{name} error_rate {outcome.failed / max(1, outcome.attempted):.6g} ratio"
              f"  # {outcome.failed} of {outcome.attempted}")
    for note in outcome.notes:
        print(f"# {name}: {note}")
    return {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def update_record(out_dir: str, cfg, name: str, trace: bool, seed: int, seconds: float,
                  result: dict, outcome) -> None:
    """Merge this run into ``<out>/BENCH_e2e.json`` (one record holds
    both modes of every workload run into the same directory)."""
    path = os.path.join(out_dir, "BENCH_e2e.json")
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    record.update({
        "config": dataclasses.asdict(cfg),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    })
    entry = record.setdefault("workloads", {}).setdefault(name, {})
    entry["per_layer" if trace else "end_to_end"] = {
        "seed": seed,
        "seconds": seconds,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "samples": outcome.samples,
        "extras": {name: value for name, (value, _) in outcome.extras.items()},
        "notes": outcome.notes,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    registry = load_registry()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--seconds", type=float, default=float(registry["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="per-layer metrics and spans instead of end-to-end metrics")
    parser.add_argument("--out", default=None,
                        help="directory for trace-<workload>.json and BENCH_e2e.json")
    parser.add_argument("--quick", action="store_true",
                        help="tiny map, for the benchmark's own test only")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the program under test is not at {SRC}", file=sys.stderr)
        return 2

    from .procs import BUILD_DIR

    cfg = QUICK if args.quick else PAPER
    out_dir = args.out or os.path.join(BUILD_DIR, "out")
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for name in names:
        started = time.perf_counter()
        outcome = run_workload(name, cfg, args.seed, args.seconds, trace, out_dir)
        result = report(name, outcome, registry, trace)
        print(f"# {name}: run took {time.perf_counter() - started:.1f} s")
        if args.out:
            update_record(out_dir, cfg, name, trace, args.seed, args.seconds, result, outcome)
        if not result["correct"]:
            status = 1
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
