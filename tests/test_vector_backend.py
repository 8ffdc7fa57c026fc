"""Parity suite for the vectorized traversal backend.

The contract under test (see ``repro/core/vector.py``): for every query
and structure, the vector backend returns *identical results* and
*identical paper counters* to the scalar reference -- per query for
``run()``, per batch totals for ``run_batch()`` (where only the
disk/hit split inside the pool-get total may shift, never the total or
the comparison counts). The suite runs twin builds of each structure so
the two backends never share buffer-pool state.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.backends import SCALAR_BACKEND, ScalarBackend, resolve_backend
from repro.core.queries.spec import QuerySpec
from repro.core.vector import HAVE_NUMPY, VectorBackend
from repro.geometry import Point, Rect
from repro.obs import TRACER, ExplainProfile

from .conftest import build_index, lattice_map

# Module-level skip would also silence the fallback tests, which are
# exactly the ones that must run on a numpy-less interpreter.
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vector backend needs numpy"
)

STRUCTURES = ["R*", "R+", "PMR"]

SEGS = lattice_map(n=8, pitch=100, jitter=15, seed=7)


def _workload_specs():
    """A mixed workload touching every op the backend dispatches."""
    specs = [
        QuerySpec.window(Rect(120, 120, 430, 380)),
        QuerySpec.window(Rect(0, 0, 1024, 1024)),
        QuerySpec.window(Rect(640, 100, 660, 800)),
        QuerySpec.window(Rect(50, 50, 55, 55)),  # empty corner
        QuerySpec.window(Rect(150, 150, 700, 700), mode="contains"),
        QuerySpec.point(Point(SEGS[0].x1, SEGS[0].y1)),
        QuerySpec.point(Point(SEGS[10].x2, SEGS[10].y2)),
        QuerySpec.point(Point(3, 3)),  # miss
        QuerySpec.incident(Point(SEGS[5].x1, SEGS[5].y1)),
        QuerySpec.nearest(Point(512, 512), k=3),
        QuerySpec.other_endpoint(Point(SEGS[2].x1, SEGS[2].y1), 2),
        QuerySpec.polygon(Point(333, 333)),
    ]
    return specs


def _twin(kind):
    """Two identical builds (twin pools, so counter splits compare 1:1)."""
    return build_index(kind, SEGS), build_index(kind, SEGS)


def _delta(idx, thunk):
    idx.ctx.pool.clear()
    before = idx.ctx.counters.snapshot()
    value = thunk()
    return value, idx.ctx.counters.since(before)


@needs_numpy
@pytest.mark.parametrize("kind", STRUCTURES)
class TestSingleQueryParity:
    def test_results_and_counters_identical(self, kind):
        idx_s, idx_v = _twin(kind)
        vec = resolve_backend("vector")
        assert isinstance(vec, VectorBackend)
        for spec in _workload_specs():
            got_s, d_s = _delta(idx_s, lambda: SCALAR_BACKEND.run(idx_s, spec))
            got_v, d_v = _delta(idx_v, lambda: vec.run(idx_v, spec))
            assert got_s == got_v, spec
            # Single-query runs keep the *exact* counter split, not just
            # the totals: disk reads, hits, and both comparison counts.
            assert d_s.as_dict() == d_v.as_dict(), spec

    def test_batch_totals_match_sequential_scalar(self, kind):
        idx_s, idx_v = _twin(kind)
        vec = resolve_backend("vector")
        specs = _workload_specs()
        got_s, d_s = _delta(
            idx_s, lambda: [SCALAR_BACKEND.run(idx_s, s) for s in specs]
        )
        got_v, d_v = _delta(idx_v, lambda: vec.run_batch(idx_v, specs))
        assert got_s == got_v
        assert d_s.bbox_comps == d_v.bbox_comps
        assert d_s.segment_comps == d_v.segment_comps
        # Fused descents fetch a node page once per frontier visit
        # instead of once per query, so the batch's pool-get total may
        # only shrink, never grow -- and disk faults never increase.
        assert (
            d_v.disk_reads + d_v.buffer_hits
            <= d_s.disk_reads + d_s.buffer_hits
        )
        assert d_v.disk_reads <= d_s.disk_reads

    def test_mutation_invalidates_mirrors(self, kind):
        from repro.geometry import Segment

        idx_s, idx_v = _twin(kind)
        vec = resolve_backend("vector")
        spec = QuerySpec.window(Rect(0, 0, 1024, 1024))
        assert vec.run(idx_v, spec) == SCALAR_BACKEND.run(idx_s, spec)
        for idx in (idx_s, idx_v):
            seg_id = idx.ctx.segments.append(Segment(10, 500, 990, 500))
            idx.insert(seg_id)
        vec.invalidate()
        got_s = SCALAR_BACKEND.run(idx_s, spec)
        got_v = vec.run(idx_v, spec)
        assert got_s == got_v
        assert any(
            sid == len(SEGS) for sid in got_v
        ), "freshly inserted segment must be visible post-invalidate"


@needs_numpy
class TestEngineIntegration:
    def test_explain_on_another_thread_does_not_unfuse_a_batch(self):
        # A fused batch's cost must not depend on what another thread
        # does: here, an EXPLAIN profile attached elsewhere, which a
        # kernel consulting ``TRACER`` would see process-wide.
        segs = lattice_map(n=16, pitch=60)
        specs = [
            QuerySpec.window(Rect(x, y, x + 150, y + 150))
            for x in range(0, 960, 120)
            for y in range(0, 960, 120)
        ]
        assert len(specs) == 64

        def batch_cost(explain_elsewhere):
            idx = build_index("R*", segs, pool_pages=4)
            vec = resolve_backend("vector")
            attached, release = threading.Event(), threading.Event()

            def hold_profile():
                TRACER.attach_profile(ExplainProfile("window", "R*"))
                try:
                    attached.set()
                    release.wait(30)
                finally:
                    TRACER.detach_profile()

            holder = threading.Thread(target=hold_profile)
            if explain_elsewhere:
                holder.start()
                assert attached.wait(30)
            try:
                return _delta(idx, lambda: vec.run_batch(idx, specs))
            finally:
                release.set()
                if explain_elsewhere:
                    holder.join(30)
                    assert not holder.is_alive()

        undisturbed = batch_cost(explain_elsewhere=False)
        assert batch_cost(explain_elsewhere=True) == undisturbed


class TestNumpyAbsentFallback:
    def test_resolve_falls_back_with_indicator(self, monkeypatch):
        import repro.core.vector as vector_mod

        monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
        be = resolve_backend("vector")
        assert isinstance(be, ScalarBackend) and be.name == "scalar"
