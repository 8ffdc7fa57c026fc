"""Opt-in paper-scale smoke test.

Run with ``REPRO_FULL=1 pytest tests/test_paper_scale_smoke.py`` to build
every structure over a full ~50 000-segment county and verify structural
invariants and cross-structure query agreement at the paper's size.
Skipped by default (it takes a minute or two on one core).
"""

import os
import random

import pytest

from repro.core.queries import QuerySpec, execute_spec
from repro.data import generate_county
from repro.geometry import Point, Rect
from repro.harness import build_structure

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_FULL"),
    reason="paper-scale smoke test; set REPRO_FULL=1 to run",
)


def test_paper_scale_build_and_agree():
    county = generate_county("cecil", scale=1.0)
    assert len(county) > 40_000

    built = {
        name: build_structure(name, county) for name in ("R*", "R+", "PMR")
    }
    for name, b in built.items():
        b.index.check_invariants()

    rng = random.Random(5)
    for _ in range(20):
        seg = county.segments[rng.randrange(len(county))]
        results = {
            name: frozenset(execute_spec(b.index, QuerySpec.point(seg.start)))
            for name, b in built.items()
        }
        assert len(set(results.values())) == 1, results

    for _ in range(10):
        p = Point(rng.randrange(16384), rng.randrange(16384))
        dists = {
            name: execute_spec(b.index, QuerySpec.nearest(p))[0][1]
            for name, b in built.items()
        }
        assert max(dists.values()) == pytest.approx(min(dists.values()))

    for _ in range(10):
        x, y = rng.randrange(16000), rng.randrange(16000)
        w = Rect(x, y, x + 300, y + 300)
        results = {
            name: frozenset(execute_spec(b.index, QuerySpec.window(w)))
            for name, b in built.items()
        }
        assert len(set(results.values())) == 1
