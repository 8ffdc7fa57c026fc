"""A deterministic budget on the interpreter work of the per-entry path.

Counts Python-level calls (``sys.setprofile``, ``call`` events only;
tracer and profiler off) per operation over a seeded set on cecil at
``scale 0.1``, each row from a cold pool. The count repeats exactly from
run to run, so it is the regression guard a clock on a shared host
cannot be: a later change that puts a ``Rect``, a ``Point`` or a
generator resume back on the per-block / per-entry / per-candidate path
moves a row above its committed constant and fails here.

Both columns were measured with this file (CPython 3.11; 3.12 inlines
comprehensions and reads lower): ``PARENT`` on a checkout of the parent
commit, ``CHANGE`` on the commit that made the path allocation-free and
re-taken whenever a later commit lowers a row (the point rows: one frame
fewer per query once the point search is called directly).
"""

import gc
import random
import sys

import pytest

from repro.core.backends import resolve_backend
from repro.core.queries import QuerySpec
from repro.data.counties import generate_county
from repro.geometry import Point, Rect, Segment
from repro.harness.experiment import build_structure
from repro.obs.trace import TRACER

PARENT_SHA = "73009e95f87fc388f4745ca59f3b148a5a956dff"
N_OPS = 200

#: Total ``call`` events over ``N_OPS`` operations of each row.
PARENT = {
    "PMR.window": 468287,
    "PMR.point": 12482,
    "PMR.nearest": 69887,
    "PMR.insert": 85079,
    "PMR.delete": 83285,
    "R*.window": 188194,
    "R*.point": 26626,
}
CHANGE = {
    "PMR.window": 107118,
    "PMR.point": 9565,
    "PMR.nearest": 33659,
    "PMR.insert": 28672,
    "PMR.delete": 31765,
    "R*.window": 111744,
    "R*.point": 26137,
}
#: What the change had to reach, as a fraction of the parent's count.
BUDGET = {row: 1.0 for row in PARENT}
BUDGET["PMR.window"] = 0.5


def count_calls(fn) -> int:
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A cyclic collection may run finalizers other tests left behind;
    # those are calls too, and not this path's.
    gc.collect()
    gc.disable()
    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def measure(kind: str):
    """``{row: calls}`` for one structure over the seeded operation set."""
    assert not TRACER.enabled and not TRACER.profiling
    map_data = generate_county("cecil", 0.1)
    built = build_structure(kind, map_data)
    index, ctx = built.index, built.ctx
    run = resolve_backend(None).run
    rng = random.Random(22)
    segments = map_data.segments
    extent = index.extent()
    side = 0.10 * extent.width
    ends = [rng.choice(segments) for _ in range(N_OPS)]
    windows = [
        Rect(s.x1 - side / 2, s.y1 - side / 2, s.x1 + side / 2, s.y1 + side / 2)
        for s in ends
    ]
    points = [Point(s.x2, s.y2) for s in ends]
    anywhere = [
        Point(rng.uniform(0, extent.width), rng.uniform(0, extent.height))
        for _ in range(N_OPS)
    ]
    new = []
    for _ in range(N_OPS):
        x, y = rng.randrange(extent.width - 64), rng.randrange(extent.height - 64)
        new.append(Segment(x, y, x + rng.randrange(1, 64), y + rng.randrange(1, 64)))

    rows = {}

    def row(name, fn):
        ctx.pool.clear()
        rows[f"{kind}.{name}"] = count_calls(fn)

    row("window", lambda: [run(index, QuerySpec.window(w)) for w in windows])
    row("point", lambda: [run(index, QuerySpec.point(p)) for p in points])
    if kind == "PMR":
        row("nearest", lambda: [run(index, QuerySpec.nearest(p)) for p in anywhere])
        ids = ctx.load_segments(new)
        row("insert", lambda: [index.insert(i) for i in ids])
        row("delete", lambda: [index.delete(i) for i in ids])
    return rows


@pytest.mark.parametrize("kind", ["PMR", "R*"])
def test_call_budget(kind):
    rows = measure(kind)
    assert set(rows) <= set(CHANGE), "run `python tests/test_hot_path_budget.py`"
    for name, calls in rows.items():
        assert CHANGE[name] <= BUDGET[name] * PARENT[name], name
        assert calls <= CHANGE[name], (
            f"{name}: {calls} calls over {N_OPS} ops, committed {CHANGE[name]} "
            f"(parent {PARENT[name]})"
        )


if __name__ == "__main__":  # prints a column to commit above
    for kind in ("PMR", "R*"):
        for name, calls in measure(kind).items():
            print(f'    "{name}": {calls},')
