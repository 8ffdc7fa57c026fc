"""How steady is the benchmark? Run it on several seeds and report spreads.

    python3 benchmarks/e2e/noise.py [--runs 10] [--first-seed 1] [--workload NAME]
                                    [--seconds S] [--out RUNS.json]

Runs the registered command once per seed and registered workload (or the
workloads named), as the driver does, and prints for each end-to-end metric the median, the quartiles and
their distance as a share of the median, beside the bound
``BENCHMARK.json`` allows. ``--out`` keeps the runs in the file format
``compare.py`` reads, so two such files from one commit are an A/A test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

if __package__ in (None, ""):
    import os
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    __package__ = "benchmarks.e2e"

from .config import BENCHMARK_JSON, ROOT, WORKLOADS  # noqa: E402


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(registry: dict, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [*registry["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        registry = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seconds", type=float, default=float(registry["run_seconds"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    runs = {}
    for workload in args.workload or [w["name"] for w in registry["workloads"]]:
        started = time.perf_counter()
        runs[workload] = [
            one_run(registry, workload, args.first_seed + i, args.seconds)
            for i in range(args.runs)
        ]
        print(f"# {workload}: {args.runs} runs in {time.perf_counter() - started:.0f} s")
        for metric in registry["end_to_end"]:
            values = [run[metric["name"]] for run in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = spread(values)
            verdict = "ok" if share <= metric["bound"] / 3 else (
                "within bound" if share <= metric["bound"] else "TOO NOISY")
            print(f"{workload} {metric['name']} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f} bound {metric['bound']} {verdict}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
