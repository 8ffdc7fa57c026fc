"""Compare two sets of runs under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``noise.py --out`` (at
least three runs a side). One row per workload and end-to-end metric:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than the spread of the runs;
* ``same``       neither, and the spread is within the bound;
* ``unresolved`` the quartiles of either side lie farther apart than the
  bound, so a regression of that size could hide in the noise -- unless
  every run of one side beats every run of the other, which decides it.

Exits 1 when any row is ``worse`` or ``unresolved``. Two files from the
same commit must come out all ``same``: that is the A/A test a bound has
to pass before anyone relies on it.
"""

from __future__ import annotations

import json
import statistics
import sys

if __package__ in (None, ""):
    import os
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    __package__ = "benchmarks.e2e"

from .config import BENCHMARK_JSON, WORKLOADS  # noqa: E402
from .noise import spread  # noqa: E402


def verdict(a, b, better: str, bound: float):
    """``(verdict, worsening, spread)`` for one metric's two samples."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / abs(med_a)
    noise = max(spread(a), spread(b))
    if noise > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better", worsening, noise
        if all(sign * y > sign * x for x in a for y in b):
            return "worse", worsening, noise
        return "unresolved", worsening, noise
    if worsening > bound:
        return "worse", worsening, noise
    if -worsening > noise:
        return "better", worsening, noise
    return "same", worsening, noise


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        registry = json.load(fh)
    sides = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            sides.append(json.load(fh)["runs"])
    status = 0
    print("workload metric A_median B_median worsening spread bound verdict")
    for name in WORKLOADS:  # registered or not: whatever both files hold
        if name not in sides[0] or name not in sides[1]:
            continue
        for metric in registry["end_to_end"]:
            a = [run[metric["name"]] for run in sides[0][name]]
            b = [run[metric["name"]] for run in sides[1][name]]
            if len(a) < 3 or len(b) < 3:
                print(f"{name}: needs at least 3 runs a side", file=sys.stderr)
                return 2
            what, worsening, noise = verdict(a, b, metric["better"], metric["bound"])
            if what in ("worse", "unresolved"):
                status = 1
            print(f"{name} {metric['name']} {statistics.median(a):.6g} "
                  f"{statistics.median(b):.6g} {worsening:+.4f} {noise:.4f} "
                  f"{metric['bound']} {what}")
    return status


if __name__ == "__main__":
    sys.exit(main())
