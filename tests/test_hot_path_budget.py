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
fewer per query once the point search is called directly; every row once
a buffer-pool hit stopped calling a replacement-policy object; the PMR
insert and delete rows once the split and merge rules were inlined; the
R-tree rows once node entries were tested in place, and the window and
point rows once a candidate list was fetched in one
``SegmentTable.fetch_many``). The R+ rows and the R-tree nearest rows
were added with that last change; their ``PARENT`` is its parent
commit's count.

The ``generate.cecil`` row is the set-up path: every call of one
``generate_county("cecil", 0.1)``. Its ``PARENT`` was measured at
9a85b35 (a ``field``, ``_edge_key``, ``neighbours`` or ``Point`` call
per lattice vertex, edge or walk step), its ``CHANGE`` once the
generator's loops made no call per edge; what is left is mostly
``random.Random``'s own Python frames (``shuffle``, ``choice``,
``randrange``). Re-take it with this file's ``__main__`` on a checkout
of each commit.

The ``engine.*`` rows are the disabled-telemetry budget of the served
path: the calls whose code lives in ``repro/obs/`` or
``repro/sanitize.py`` that one read through ``QueryEngine.execute`` makes
with the tracer, the profiler and the lock sanitizer all off.
"""

import gc
import os
import random
import sys

import pytest

from repro.core.backends import resolve_backend
from repro.core.queries import QuerySpec
from repro.data.counties import generate_county
from repro.geometry import Point, Rect, Segment
from repro import obs, sanitize
from repro.harness.experiment import build_structure
from repro.obs import MetricsRegistry
from repro.obs.profile import PROFILER
from repro.obs.trace import TRACER
from repro.sanitize import SANITIZER
from repro.service import QueryEngine
from tests.conftest import build_index, lattice_map

PARENT_SHA = "73009e95f87fc388f4745ca59f3b148a5a956dff"
N_OPS = 200
KINDS = ("PMR", "R*", "R+")

#: Total ``call`` events over ``N_OPS`` operations of each row.
PARENT = {
    "PMR.window": 468287,
    "PMR.point": 12482,
    "PMR.nearest": 69887,
    "PMR.insert": 85079,
    "PMR.delete": 83285,
    "R*.window": 188194,
    "R*.point": 26626,
    # Measured at 3d724d0239127d8ab46858e310c726de70088a5b.
    "R*.nearest": 91332,
    "R+.window": 98324,
    "R+.point": 19972,
    "R+.nearest": 75194,
    # Measured at 9a85b35caa0cbb134a0921cd36abf8888fd83970.
    "generate.cecil": 129759,
}
CHANGE = {
    "PMR.window": 51799,
    "PMR.point": 7050,
    "PMR.nearest": 30360,
    "PMR.insert": 24079,
    "PMR.delete": 27711,
    "R*.window": 26842,
    "R*.point": 5337,
    "R*.nearest": 40291,
    "R+.window": 27505,
    "R+.point": 5246,
    "R+.nearest": 34807,
    "generate.cecil": 19840,
}
#: What the change had to reach, as a fraction of the parent's count.
BUDGET = {row: 1.0 for row in PARENT}
BUDGET["PMR.window"] = 0.5
BUDGET["generate.cecil"] = 0.5

#: Calls into ``repro/obs/`` and ``repro/sanitize.py`` per served read,
#: telemetry off: the no-op ``traverse`` span (open, enter, exit) and the
#: latency histogram.
ENGINE = {
    "engine.point": 4,
    "engine.window": 4,
    "engine.nearest": 4,
}
_TELEMETRY = (os.path.dirname(obs.__file__) + os.sep, sanitize.__file__)


def count_calls(fn, only=None) -> int:
    """``call`` events while ``fn`` runs; with ``only``, just those whose
    code file starts with one of its prefixes."""
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call" and (
            only is None or frame.f_code.co_filename.startswith(only)
        ):
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
    assert not TRACER.enabled
    map_data = generate_county("cecil", 0.1)
    built = build_structure(kind, map_data)
    index, ctx = built.index, built.ctx
    assert ctx.profile is None
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
    row("nearest", lambda: [run(index, QuerySpec.nearest(p)) for p in anywhere])
    if kind == "PMR":
        ids = ctx.load_segments(new)
        row("insert", lambda: [index.insert(i) for i in ids])
        row("delete", lambda: [index.delete(i) for i in ids])
    return rows


@pytest.mark.parametrize("kind", KINDS)
def test_call_budget(kind):
    rows = measure(kind)
    assert set(rows) <= set(CHANGE), "run `python tests/test_hot_path_budget.py`"
    for name, calls in rows.items():
        assert CHANGE[name] <= BUDGET[name] * PARENT[name], name
        assert calls <= CHANGE[name], (
            f"{name}: {calls} calls over {N_OPS} ops, committed {CHANGE[name]} "
            f"(parent {PARENT[name]})"
        )


def measure_generate():
    """``{row: calls}`` of one county generation."""
    return {"generate.cecil": count_calls(lambda: generate_county("cecil", 0.1))}


def test_generate_budget():
    for name, calls in measure_generate().items():
        assert CHANGE[name] <= BUDGET[name] * PARENT[name], name
        assert calls <= CHANGE[name], (
            f"{name}: {calls} calls, committed {CHANGE[name]} "
            f"(parent {PARENT[name]})"
        )


def measure_engine():
    """``{row: calls per op}`` of served reads, telemetry off."""
    assert not (TRACER.enabled or PROFILER.enabled or SANITIZER.enabled)
    engine = QueryEngine(
        build_index("R*", lattice_map(n=8)), registry=MetricsRegistry()
    )
    rng = random.Random(31)
    specs = {
        "point": lambda x, y: QuerySpec.point(Point(x, y)),
        "window": lambda x, y: QuerySpec.window(Rect(x, y, x + 150, y + 150)),
        "nearest": lambda x, y: QuerySpec.nearest(Point(x, y), k=3),
    }
    rows = {}
    for op, make in specs.items():
        engine.execute(make(-1.0, -1.0))  # resolves the op's metric handles
        batch = [make(rng.uniform(0, 900), rng.uniform(0, 900)) for _ in range(N_OPS)]
        calls = count_calls(lambda: [engine.execute(s) for s in batch], _TELEMETRY)
        rows[f"engine.{op}"] = calls / N_OPS
    return rows


def test_disabled_telemetry_budget():
    rows = measure_engine()
    assert set(rows) == set(ENGINE)
    for name, calls in rows.items():
        assert calls <= ENGINE[name], (
            f"{name}: {calls} calls into repro/obs and repro/sanitize.py per "
            f"op, committed {ENGINE[name]}"
        )


if __name__ == "__main__":  # prints a column to commit above
    for kind in KINDS:
        for name, calls in measure(kind).items():
            print(f'    "{name}": {calls},')
    for name, calls in measure_generate().items():
        print(f'    "{name}": {calls},')
    for name, calls in measure_engine().items():
        print(f'    "{name}": {calls:g},')
