"""Differential fuzzing: every structure, same operations, same answers.

One hypothesis-driven test executes a random interleaving of inserts,
deletes, and all five queries against *all* structures at once (each with
its own storage stack) and a brute-force reference. Any divergence --
wrong results, violated invariants, crashes -- falsifies with a minimal
operation sequence.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import (
    QuerySpec,
    execute_spec,
)
from repro.geometry import Point, Rect
from repro.storage import StorageContext

from tests.conftest import (
    ALL_STRUCTURES,
    TEST_WORLD,
    make_index,
    random_planar_segments,
)


@settings(deadline=None, max_examples=12)
@given(st.integers(0, 100_000))
def test_differential_operations(seed):
    rng = random.Random(seed)
    segments = random_planar_segments(rng, n_cells=5)

    # One shared segment-table content, one stack per structure.
    stacks = {}
    for kind in ALL_STRUCTURES:
        ctx = StorageContext.create()
        idx = make_index(kind, ctx)
        ids = ctx.load_segments(segments)
        stacks[kind] = (idx, ids)

    alive: set = set()
    pending = list(range(len(segments)))
    rng.shuffle(pending)

    def check_agreement():
        # Q1 at a random endpoint of a live segment.
        if alive:
            victim = rng.choice(sorted(alive))
            p = segments[victim].start
            expected = {
                i for i in alive if segments[i].has_endpoint(p)
            }
            for kind, (idx, ids) in stacks.items():
                got = set(execute_spec(idx, QuerySpec.point(p)))
                assert got == {ids[i] for i in expected}, (kind, p)

        # Q5 over a random window.
        x, y = rng.randint(0, 800), rng.randint(0, 800)
        w = Rect(x, y, x + rng.randint(20, 220), y + rng.randint(20, 220))
        expected_w = {
            i for i in alive if segments[i].intersects_rect(w)
        }
        for kind, (idx, ids) in stacks.items():
            got = set(execute_spec(idx, QuerySpec.window(w)))
            assert got == {ids[i] for i in expected_w}, (kind, w)

        # Q3 from a random point.
        if alive:
            q = Point(rng.randint(0, TEST_WORLD - 1), rng.randint(0, TEST_WORLD - 1))
            best = min(segments[i].distance2_to_point(q) for i in alive)
            for kind, (idx, ids) in stacks.items():
                sid, d2 = execute_spec(idx, QuerySpec.nearest(q))[0]
                assert d2 == pytest.approx(best), (kind, q)

    ops = 0
    while pending or (alive and ops < 60):
        ops += 1
        roll = rng.random()
        if pending and (roll < 0.6 or not alive):
            i = pending.pop()
            for kind, (idx, ids) in stacks.items():
                idx.insert(ids[i])
            alive.add(i)
        elif alive and roll < 0.8:
            i = rng.choice(sorted(alive))
            for kind, (idx, ids) in stacks.items():
                idx.delete(ids[i])
            alive.discard(i)
        else:
            check_agreement()

    check_agreement()
    for kind, (idx, _) in stacks.items():
        idx.check_invariants()


@settings(deadline=None, max_examples=6)
@given(st.integers(0, 100_000))
def test_differential_polygon_walks(seed):
    """The polygon walk must agree across structures on full maps."""
    rng = random.Random(seed)
    segments = random_planar_segments(rng, n_cells=5)
    stacks = {}
    for kind in ALL_STRUCTURES:
        ctx = StorageContext.create()
        idx = make_index(kind, ctx)
        for sid in ctx.load_segments(segments):
            idx.insert(sid)
        stacks[kind] = idx

    for _ in range(3):
        p = Point(rng.randint(100, 900), rng.randint(100, 900))
        outcomes = set()
        for kind, idx in stacks.items():
            r = execute_spec(idx, QuerySpec.polygon(p))
            outcomes.add((frozenset(r.seg_ids), r.is_outer, r.size))
        assert len(outcomes) == 1, (p, outcomes)
