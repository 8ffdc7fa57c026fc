"""Tests for the true R+-tree (content MBRs inside disjoint partitions)."""

import random

import pytest

from repro.core import RPlusTree, TrueRPlusTree
from repro.core.queries import QuerySpec, execute_spec
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext

from tests.conftest import (
    TEST_WORLD,
    lattice_map,
    oracle_at_point,
    oracle_in_window,
    oracle_nearest_dist2,
    random_planar_segments,
)

WORLD = Rect(0, 0, TEST_WORLD, TEST_WORLD)


def build(cls, segments, capacity=None):
    ctx = StorageContext.create()
    idx = cls(ctx, world=WORLD, capacity=capacity)
    for sid in ctx.load_segments(segments):
        idx.insert(sid)
    return idx


class TestCorrectness:
    def test_queries_match_oracle(self):
        rng = random.Random(41)
        segs = random_planar_segments(rng)
        idx = build(TrueRPlusTree, segs, capacity=6)
        idx.check_invariants()
        for s in segs[:15]:
            got = set(execute_spec(idx, QuerySpec.point(s.start)))
            assert got == set(oracle_at_point(segs, s.start))
        w = Rect(120, 180, 700, 660)
        assert set(execute_spec(idx, QuerySpec.window(w))) == set(
            oracle_in_window(segs, w)
        )
        p = Point(444, 333)
        assert execute_spec(idx, QuerySpec.nearest(p))[0][1] == pytest.approx(
            oracle_nearest_dist2(segs, p)
        )

    def test_same_pages_as_hybrid(self):
        """The true R+ stores the same number of tuples/pages (Section 3:
        k-d-B and R+ storage costs are the same)."""
        segs = lattice_map(n=10, pitch=90)
        hybrid = build(RPlusTree, segs, capacity=10)
        true_rp = build(TrueRPlusTree, segs, capacity=10)
        assert true_rp.page_count() == hybrid.page_count()
        assert true_rp.entry_count() == hybrid.entry_count()

    def test_delete_stays_correct_with_loose_mbrs(self):
        segs = lattice_map(n=6, pitch=110)
        ctx = StorageContext.create()
        idx = TrueRPlusTree(ctx, world=WORLD, capacity=8)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        for sid in ids[::3]:
            idx.delete(sid)
        idx.check_invariants()  # MBRs may be loose, never wrong
        alive = [sid for i, sid in enumerate(ids) if i % 3 != 0]
        got = set(idx.candidate_ids_in_rect(Rect(0, 0, TEST_WORLD, TEST_WORLD)))
        assert got == set(alive)


class TestDeadSpacePruning:
    def _clustered_map(self):
        """Two far-apart clusters: partitions cover the void between
        them, content MBRs do not."""
        a = [Segment(50 + i * 6, 50, 53 + i * 6, 60) for i in range(25)]
        b = [Segment(900 + i * 4, 900, 902 + i * 4, 910) for i in range(25)]
        return a + b

    def test_point_query_fails_earlier_on_dead_space(self):
        """Paper: point searches fail earlier in the true R+ than in the
        k-d-B-style variants because dead space is minimized."""
        segs = self._clustered_map()
        hybrid = build(RPlusTree, segs, capacity=8)
        true_rp = build(TrueRPlusTree, segs, capacity=8)

        dead = Point(512, 512)  # the void between the clusters
        b0 = hybrid.ctx.counters.bbox_comps
        hybrid.candidate_ids_at_point(dead)
        hybrid_cost = hybrid.ctx.counters.bbox_comps - b0

        b0 = true_rp.ctx.counters.bbox_comps
        true_rp.candidate_ids_at_point(dead)
        true_cost = true_rp.ctx.counters.bbox_comps - b0

        assert true_cost <= hybrid_cost

    def test_window_in_dead_space_prunes_fully(self):
        segs = self._clustered_map()
        true_rp = build(TrueRPlusTree, segs, capacity=8)
        got = true_rp.candidate_ids_in_rect(Rect(400, 400, 600, 600))
        assert got == []

    def test_nn_skips_empty_subtrees(self):
        segs = self._clustered_map()
        true_rp = build(TrueRPlusTree, segs, capacity=8)
        p = Point(100, 100)
        sid, d2 = execute_spec(true_rp, QuerySpec.nearest(p))[0]
        assert d2 == pytest.approx(oracle_nearest_dist2(segs, p))

    def test_build_charges_more_bbox_work(self):
        """Paper: the true R+ builds slower (MBR maintenance)."""
        segs = lattice_map(n=8, pitch=110)
        hybrid = build(RPlusTree, segs)
        true_rp = build(TrueRPlusTree, segs)
        assert (
            true_rp.ctx.counters.bbox_comps > hybrid.ctx.counters.bbox_comps
        )


class TestPropertyBased:
    def test_random_maps(self):
        for seed in range(6):
            rng = random.Random(seed * 131)
            segs = random_planar_segments(rng, n_cells=5)
            idx = build(TrueRPlusTree, segs, capacity=6)
            idx.check_invariants()
            w = Rect(100, 100, 700, 700)
            assert set(execute_spec(idx, QuerySpec.window(w))) == set(
                oracle_in_window(segs, w)
            )
