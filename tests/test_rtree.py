"""Tests for the R-tree family: Guttman base, split policies, R*-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rtree import (
    GuttmanRTree,
    RStarTree,
    split_linear,
    split_quadratic,
    split_rstar,
)
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext

from tests.conftest import (
    lattice_map,
    oracle_at_point,
    oracle_in_window,
    random_planar_segments,
)


def build(cls, segments, **kw):
    ctx = StorageContext.create()
    idx = cls(ctx, **kw)
    for sid in ctx.load_segments(segments):
        idx.insert(sid)
    return idx


class TestSplitPolicies:
    def _entries(self, rng, n):
        out = []
        for i in range(n):
            x = rng.randint(0, 900)
            y = rng.randint(0, 900)
            out.append((Rect(x, y, x + rng.randint(1, 80), y + rng.randint(1, 80)), i))
        return out

    @pytest.mark.parametrize("policy", [split_linear, split_quadratic, split_rstar])
    def test_groups_partition_entries(self, policy):
        rng = random.Random(3)
        entries = self._entries(rng, 11)
        g1, g2 = policy(entries, m=4)
        assert sorted(e[1] for e in g1 + g2) == sorted(e[1] for e in entries)
        assert len(g1) >= 4 and len(g2) >= 4

    @pytest.mark.parametrize("policy", [split_linear, split_quadratic, split_rstar])
    def test_minimum_m_respected_many_sizes(self, policy):
        rng = random.Random(4)
        for n in (4, 5, 8, 21, 51):
            for m in (2, n // 3 or 2):
                if 2 * m > n:
                    continue
                g1, g2 = policy(self._entries(rng, n), m=m)
                assert len(g1) >= m and len(g2) >= m
                assert len(g1) + len(g2) == n

    @pytest.mark.parametrize("policy", [split_linear, split_quadratic, split_rstar])
    def test_too_few_entries_rejected(self, policy):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            policy(self._entries(rng, 5), m=3)

    def test_rstar_split_separates_two_clusters(self):
        left = [(Rect(i, 0, i + 1, 10), i) for i in range(5)]
        right = [(Rect(500 + i, 0, 501 + i, 10), 100 + i) for i in range(5)]
        g1, g2 = split_rstar(left + right, m=2)
        ids1 = {e[1] for e in g1}
        ids2 = {e[1] for e in g2}
        assert ids1 in ({0, 1, 2, 3, 4}, {100, 101, 102, 103, 104})
        assert ids1 | ids2 == {0, 1, 2, 3, 4, 100, 101, 102, 103, 104}

    def test_rstar_split_zero_overlap_when_possible(self):
        left = [(Rect(i, 0, i + 1, 10), i) for i in range(5)]
        right = [(Rect(500 + i, 0, 501 + i, 10), 100 + i) for i in range(5)]
        g1, g2 = split_rstar(left + right, m=2)
        r1 = Rect.union_of(r for r, _ in g1)
        r2 = Rect.union_of(r for r, _ in g2)
        assert r1.overlap_area(r2) == 0


@pytest.mark.parametrize("cls", [GuttmanRTree, RStarTree])
class TestRTreeStructure:
    def test_empty_tree(self, cls):
        ctx = StorageContext.create()
        idx = cls(ctx)
        assert idx.entry_count() == 0
        assert idx.height() == 1
        assert idx.page_count() == 1
        assert idx.candidate_ids_at_point(Point(1, 1)) == []
        assert idx.candidate_ids_in_rect(Rect(0, 0, 10, 10)) == []
        idx.check_invariants()

    def test_single_segment(self, cls):
        idx = build(cls, [Segment(10, 10, 50, 30)])
        assert idx.entry_count() == 1
        assert idx.candidate_ids_at_point(Point(10, 10)) == [0]
        assert idx.candidate_ids_at_point(Point(9, 10)) == []
        idx.check_invariants()

    def test_grows_and_invariants_hold(self, cls):
        segs = lattice_map(n=10, pitch=90)
        idx = build(cls, segs)
        assert idx.height() >= 2
        assert idx.entry_count() == len(segs)
        idx.check_invariants()

    def test_capacity_too_small_rejected(self, cls):
        ctx = StorageContext.create()
        with pytest.raises(ValueError):
            cls(ctx, capacity=3)

    def test_min_fill_too_large_rejected(self, cls):
        ctx = StorageContext.create()
        with pytest.raises(ValueError):
            cls(ctx, min_fill=0.9)

    def test_point_candidates_superset_of_oracle(self, cls):
        rng = random.Random(11)
        segs = random_planar_segments(rng)
        idx = build(cls, segs)
        for s in segs[:20]:
            for p in (s.start, s.end):
                got = set(idx.candidate_ids_at_point(p))
                assert got >= set(oracle_at_point(segs, p))

    def test_window_candidates_superset_of_oracle(self, cls):
        rng = random.Random(12)
        segs = random_planar_segments(rng)
        idx = build(cls, segs)
        for _ in range(20):
            x, y = rng.randint(0, 900), rng.randint(0, 900)
            w = Rect(x, y, x + rng.randint(10, 120), y + rng.randint(10, 120))
            got = set(idx.candidate_ids_in_rect(w))
            assert got >= set(oracle_in_window(segs, w))

    def test_delete_removes_and_preserves_invariants(self, cls):
        segs = lattice_map(n=7, pitch=100)
        ctx = StorageContext.create()
        idx = cls(ctx)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        rng = random.Random(13)
        rng.shuffle(ids)
        for k, sid in enumerate(ids):
            idx.delete(sid)
            if k % 17 == 0:
                idx.check_invariants()
        assert idx.entry_count() == 0
        idx.check_invariants()

    def test_delete_missing_raises(self, cls):
        segs = [Segment(0, 0, 10, 10)]
        ctx = StorageContext.create()
        idx = cls(ctx)
        ids = ctx.load_segments(segs + [Segment(20, 20, 30, 30)])
        idx.insert(ids[0])
        with pytest.raises(KeyError):
            idx.delete(ids[1])

    def test_delete_then_query_consistent(self, cls):
        segs = lattice_map(n=6, pitch=100)
        ctx = StorageContext.create()
        idx = cls(ctx)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        victim = ids[len(ids) // 2]
        vict_seg = segs[victim]
        idx.delete(victim)
        got = idx.candidate_ids_at_point(vict_seg.start)
        assert victim not in got
        idx.check_invariants()

    def test_metrics_charged(self, cls):
        segs = lattice_map(n=6, pitch=100)
        ctx = StorageContext.create()
        idx = cls(ctx)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        before = ctx.counters.bbox_comps
        idx.candidate_ids_at_point(Point(100, 100))
        assert ctx.counters.bbox_comps > before


class TestRStarSpecifics:
    def test_reinsertion_happens(self):
        """Force reinsert fires on the first leaf overflow below the root."""
        segs = lattice_map(n=12, pitch=75)
        ctx = StorageContext.create()
        idx = RStarTree(ctx, capacity=8)

        fired = []
        original = RStarTree._handle_overflow

        def spy(self, page_id, node, level, has_parent, overflow_levels):
            out = original(self, page_id, node, level, has_parent, overflow_levels)
            fired.append(out is not None)
            return out

        RStarTree._handle_overflow = spy
        try:
            for sid in ctx.load_segments(segs):
                idx.insert(sid)
        finally:
            RStarTree._handle_overflow = original
        assert any(fired), "forced reinsertion never triggered"
        assert not all(fired), "splits never happened"
        idx.check_invariants()

    def test_rstar_more_compact_than_rplus(self):
        """The paper: "The R*-tree is more compact than the R+-tree"
        (the R+-tree duplicates entries to keep its regions disjoint)."""
        from repro.core.rplus import RPlusTree
        from repro.geometry import Rect as R

        segs = lattice_map(n=14, pitch=65, jitter=10, seed=5)
        rstar = build(RStarTree, segs)
        ctx = StorageContext.create()
        rplus = RPlusTree(ctx, world=R(0, 0, 1024, 1024))
        for sid in ctx.load_segments(segs):
            rplus.insert(sid)
        assert rstar.page_count() <= rplus.page_count()
        assert rstar.entry_count() <= rplus.entry_count()

    def test_leaf_occupancy_reasonable(self):
        segs = lattice_map(n=14, pitch=65)
        idx = build(RStarTree, segs)
        occ = idx.leaf_occupancy()
        assert idx.min_entries <= occ <= idx.capacity

    def test_choose_subtree_shortcut_matches_full_path(self):
        """The containment shortcut must pick a zero-enlargement entry."""
        ctx = StorageContext.create()
        idx = RStarTree(ctx)
        from repro.core.rtree.node import RTreeNode

        node = RTreeNode(
            is_leaf=False,
            entries=[
                (Rect(0, 0, 100, 100), 1),
                (Rect(50, 50, 60, 60), 2),
                (Rect(200, 200, 300, 300), 3),
            ],
        )
        pick = idx._choose_subtree(node, Rect(55, 55, 58, 58), level=1)
        assert pick == 1  # smallest containing rectangle


class TestRTreePropertyBased:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_random_maps_query_correct(self, seed):
        rng = random.Random(seed)
        segs = random_planar_segments(rng, n_cells=5)
        idx = build(RStarTree, segs)
        idx.check_invariants()
        p = segs[rng.randrange(len(segs))].start
        got = set(idx.candidate_ids_at_point(p))
        assert got >= set(oracle_at_point(segs, p))

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000))
    def test_insert_delete_interleaved(self, seed):
        rng = random.Random(seed)
        segs = random_planar_segments(rng, n_cells=5)
        ctx = StorageContext.create()
        idx = GuttmanRTree(ctx)
        ids = ctx.load_segments(segs)
        alive = set()
        for sid in ids:
            idx.insert(sid)
            alive.add(sid)
            if rng.random() < 0.3 and alive:
                victim = rng.choice(sorted(alive))
                idx.delete(victim)
                alive.discard(victim)
        idx.check_invariants()
        assert idx.entry_count() == len(alive)
