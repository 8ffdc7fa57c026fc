"""Tests for the hybrid R+-tree / k-d-B-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rplus import RPlusTree
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext

from tests.conftest import (
    TEST_WORLD,
    lattice_map,
    oracle_at_point,
    oracle_in_window,
    random_planar_segments,
)

WORLD = Rect(0, 0, TEST_WORLD, TEST_WORLD)


def build(segments, capacity=None, page_size=1024):
    ctx = StorageContext.create(page_size=page_size)
    idx = RPlusTree(ctx, world=WORLD, capacity=capacity)
    for sid in ctx.load_segments(segments):
        idx.insert(sid)
    return idx


class TestBasics:
    def test_empty(self):
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=WORLD)
        assert idx.entry_count() == 0
        assert idx.candidate_ids_at_point(Point(5, 5)) == []
        idx.check_invariants()

    def test_single_segment(self):
        idx = build([Segment(10, 10, 200, 40)])
        assert idx.entry_count() == 1
        assert idx.segment_count() == 1
        assert idx.candidate_ids_at_point(Point(10, 10)) == [0]
        idx.check_invariants()

    def test_segment_duplicated_across_leaves_after_split(self):
        """A long segment must appear in every leaf region it crosses."""
        # Many short verticals force splits; one long horizontal crosses all.
        segs = [Segment(i * 10 + 5, 100, i * 10 + 5, 200) for i in range(80)]
        segs.append(Segment(0, 150, 900, 150))
        idx = build(segs, capacity=8)
        assert idx.height() >= 2
        assert idx.entry_count() > len(segs)  # duplication happened
        idx.check_invariants()

    def test_world_default(self):
        ctx = StorageContext.create()
        idx = RPlusTree(ctx)
        assert idx.world == Rect(0, 0, 16384, 16384)

    def test_capacity_too_small(self):
        ctx = StorageContext.create()
        with pytest.raises(ValueError):
            RPlusTree(ctx, capacity=2)

    def test_refuses_params_written_with_a_split_rule(self):
        """Snapshots written before the one split rule carry a
        ``split_rule`` key in their params. No key this build does not
        read is dropped in silence: reopening refuses, naming it; the
        declared params alone still reopen the same tree."""
        idx = build(lattice_map(n=6, pitch=110), capacity=8)
        params = {**idx.params(), "split_rule": "min_cut"}
        with pytest.raises(ValueError, match="'split_rule'"):
            RPlusTree.reopen(idx.ctx, params, idx.state())
        again = RPlusTree.reopen(idx.ctx, idx.params(), idx.state())
        assert set(again.candidate_ids_in_rect(WORLD)) == set(range(60))
        again.check_invariants()


class TestDisjointness:
    def test_invariants_on_lattice(self):
        idx = build(lattice_map(n=10, pitch=90), capacity=10)
        idx.check_invariants()  # includes tiling + disjointness checks

    def test_point_query_single_path_when_interior(self):
        """A point strictly inside one region descends a single path."""
        segs = lattice_map(n=10, pitch=90)
        idx = build(segs, capacity=10)
        ctx = idx.ctx
        # Interior, off the lattice: not on any split line with high odds.
        before = ctx.counters.bbox_comps
        idx.candidate_ids_at_point(Point(137.5, 233.5))
        # Visited nodes = height (single path); each charges <= capacity.
        assert ctx.counters.bbox_comps - before <= idx.height() * (idx.capacity + 1)

    def test_downward_split_cascade(self):
        """Internal splits must propagate the cut to straddling children."""
        rng = random.Random(99)
        # Dense enough to force internal splits with a small capacity.
        segs = lattice_map(n=14, pitch=65, jitter=8, seed=4)
        idx = build(segs, capacity=6)
        assert idx.height() >= 3
        idx.check_invariants()


class TestQueries:
    def test_point_candidates_match_oracle(self):
        rng = random.Random(21)
        segs = random_planar_segments(rng)
        idx = build(segs)
        for s in segs:
            for p in (s.start, s.end):
                got = set(idx.candidate_ids_at_point(p))
                assert got >= set(oracle_at_point(segs, p))

    def test_window_candidates_match_oracle(self):
        rng = random.Random(22)
        segs = random_planar_segments(rng)
        idx = build(segs, capacity=8)
        for _ in range(30):
            x, y = rng.randint(0, 900), rng.randint(0, 900)
            w = Rect(x, y, x + rng.randint(5, 150), y + rng.randint(5, 150))
            got = set(idx.candidate_ids_in_rect(w))
            assert got >= set(oracle_in_window(segs, w))


class TestDeletion:
    def test_delete_removes_all_copies(self):
        segs = [Segment(i * 10 + 5, 100, i * 10 + 5, 200) for i in range(80)]
        long_seg = Segment(0, 150, 900, 150)
        segs.append(long_seg)
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=WORLD, capacity=8)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        long_id = ids[-1]
        idx.delete(long_id)
        assert long_id not in idx.candidate_ids_at_point(Point(0, 150))
        assert long_id not in idx.candidate_ids_in_rect(Rect(0, 0, 1000, 1000))
        idx.check_invariants()

    def test_delete_everything(self):
        segs = lattice_map(n=6, pitch=110)
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=WORLD, capacity=8)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        for sid in ids:
            idx.delete(sid)
        assert idx.entry_count() == 0
        assert idx.segment_count() == 0

    def test_delete_missing_raises(self):
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=WORLD)
        ids = ctx.load_segments([Segment(0, 0, 5, 5), Segment(10, 10, 20, 20)])
        idx.insert(ids[0])
        with pytest.raises(KeyError):
            idx.delete(ids[1])


class TestPathological:
    def test_unsplittable_leaf_stays_overfull_but_searchable(self):
        """Identical overlapping segments cannot be separated by any line."""
        base = [Segment(100, 100, 300, 300) for _ in range(3)]
        # Distinct but fully overlapping extents spanning the same span.
        segs = [Segment(100, 100 + i, 300, 300 + i) for i in range(12)]
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=WORLD, capacity=6)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        # All segments still found.
        got = set(idx.candidate_ids_in_rect(Rect(0, 0, 1000, 1000)))
        assert got == set(ids)
        # Overflow pages are charged in the page count.
        assert idx.page_count() >= 2

    def test_overflow_accounting(self):
        segs = [Segment(100, 100 + i, 300, 300 + i) for i in range(20)]
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=WORLD, capacity=6)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        # Whatever the shape, bytes_used must cover all entries.
        assert idx.page_count() * idx.capacity >= idx.entry_count() // 2


class TestPropertyBased:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_random_maps(self, seed):
        rng = random.Random(seed)
        segs = random_planar_segments(rng, n_cells=5)
        idx = build(segs, capacity=6)
        idx.check_invariants()
        w = Rect(100, 100, 600, 600)
        got = set(idx.candidate_ids_in_rect(w))
        assert got >= set(oracle_in_window(segs, w))

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_random_delete_half(self, seed):
        rng = random.Random(seed)
        segs = random_planar_segments(rng, n_cells=5)
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=WORLD, capacity=6)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        victims = ids[:: 2]
        for sid in victims:
            idx.delete(sid)
        survivors = set(ids) - set(victims)
        got = set(idx.candidate_ids_in_rect(Rect(0, 0, 1024, 1024)))
        assert got == survivors
