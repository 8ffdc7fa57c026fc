"""Tests for the PMR quadtree and its locational-code machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pmr import PMRBlock, PMRQuadtree, deinterleave, interleave, locational_code
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext

from tests.conftest import (
    TEST_DEPTH,
    TEST_WORLD,
    lattice_map,
    oracle_at_point,
    oracle_in_window,
    random_planar_segments,
)


def build(segments, threshold=4, page_size=1024, **kw):
    ctx = StorageContext.create(page_size=page_size)
    idx = PMRQuadtree(
        ctx, threshold=threshold, max_depth=TEST_DEPTH, world_size=TEST_WORLD, **kw
    )
    for sid in ctx.load_segments(segments):
        idx.insert(sid)
    return idx


class TestLocationalCodes:
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_interleave_roundtrip(self, x, y):
        assert deinterleave(interleave(x, y)) == (x, y)

    def test_interleave_known_values(self):
        assert interleave(0, 0) == 0
        assert interleave(1, 0) == 1
        assert interleave(0, 1) == 2
        assert interleave(1, 1) == 3
        assert interleave(2, 3) == 0b1110

    def test_z_order_is_monotone_within_quadrants(self):
        # The four children of the root occupy disjoint, ordered intervals.
        max_depth = 4
        codes = [
            locational_code(bx, by, 1, max_depth) for bx, by in
            [(0, 0), (1, 0), (0, 1), (1, 1)]
        ]
        size = 4 ** (max_depth - 1)
        assert codes == [0, size, 2 * size, 3 * size]

    def test_leaf_intervals_partition_space(self):
        """Sibling blocks' code intervals are adjacent and disjoint."""
        parent = PMRBlock(0, 0, 0)
        children = parent.split()
        intervals = []
        for c in children:
            lo = locational_code(c.bx, c.by, c.depth, 3)
            intervals.append((lo, lo + 4 ** (3 - c.depth)))
        intervals.sort()
        assert intervals[0][0] == 0
        for (a_lo, a_hi), (b_lo, _) in zip(intervals, intervals[1:]):
            assert a_hi == b_lo
        assert intervals[-1][1] == 4**3


class TestBlocks:
    def test_rect(self):
        b = PMRBlock(1, 1, 0)
        assert b.rect(1024) == Rect(512, 0, 1024, 512)

    def test_split_and_merge(self):
        b = PMRBlock(0, 0, 0)
        kids = b.split()
        assert len(kids) == 4
        assert not b.is_leaf
        with pytest.raises(ValueError):
            b.split()
        b.merge()
        assert b.is_leaf
        with pytest.raises(ValueError):
            b.merge()

    def test_child_containing_half_open(self):
        b = PMRBlock(0, 0, 0)
        b.split()
        sw = b.child_containing(0, 0, 1024)
        assert (sw.bx, sw.by) == (0, 0)
        # The midpoint belongs to the NE child (half-open convention).
        ne = b.child_containing(512, 512, 1024)
        assert (ne.bx, ne.by) == (1, 1)
        se = b.child_containing(1023, 0, 1024)
        assert (se.bx, se.by) == (1, 0)

    def test_iter_leaves(self):
        b = PMRBlock(0, 0, 0)
        kids = b.split()
        kids[0].split()
        assert len(list(b.iter_leaves())) == 7


class TestConstruction:
    def test_bad_parameters(self):
        ctx = StorageContext.create()
        with pytest.raises(ValueError):
            PMRQuadtree(ctx, threshold=0)
        with pytest.raises(ValueError):
            PMRQuadtree(ctx, max_depth=0)
        with pytest.raises(ValueError):
            PMRQuadtree(ctx, world_size=1000)

    def test_empty(self):
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, world_size=TEST_WORLD, max_depth=TEST_DEPTH)
        assert idx.entry_count() == 0
        assert idx.candidate_ids_at_point(Point(1, 1)) == []
        assert len(idx.leaf_blocks()) == 1
        idx.check_invariants()

    def test_no_split_below_threshold(self):
        segs = [Segment(10, 10, 20, 20), Segment(30, 30, 40, 40)]
        idx = build(segs, threshold=4)
        assert len(idx.leaf_blocks()) == 1
        assert idx.depth() == 0

    def test_split_on_exceeding_threshold(self):
        # 5 small disjoint segments in one quadrant force a split.
        segs = [Segment(10 + i * 4, 10, 12 + i * 4, 12) for i in range(5)]
        idx = build(segs, threshold=4)
        assert len(idx.leaf_blocks()) > 1
        idx.check_invariants()

    def test_split_once_rule(self):
        """One insertion splits an affected block at most once, so children
        may legally remain above the threshold."""
        # All segments cluster in a tiny area: after one split, a child
        # holds them all and exceeds the threshold until the next insert.
        segs = [Segment(10, 10 + i, 40, 12 + i) for i in range(6)]
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, threshold=4, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        ids = ctx.load_segments(segs)
        for sid in ids[:5]:
            idx.insert(sid)
        assert idx.depth() == 1  # split exactly one level despite clustering
        idx.check_invariants()

    def test_threshold_depth_bound(self):
        """Bucket occupancy never exceeds threshold + depth (Section 3)."""
        rng = random.Random(5)
        segs = random_planar_segments(rng)
        idx = build(segs, threshold=2)
        idx.check_invariants()  # includes the bound

    def test_max_depth_blocks_never_split(self):
        segs = [Segment(0, i, 1023, i + 1) for i in range(8)]
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, threshold=1, max_depth=2, world_size=TEST_WORLD)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        assert idx.depth() <= 2
        idx.check_invariants()


class TestQueries:
    def test_point_candidates_superset_of_oracle(self):
        rng = random.Random(31)
        segs = random_planar_segments(rng)
        idx = build(segs)
        for s in segs:
            for p in (s.start, s.end):
                got = set(idx.candidate_ids_at_point(p))
                assert got >= set(oracle_at_point(segs, p))

    def test_point_query_examines_one_bucket(self):
        segs = lattice_map(n=8, pitch=110)
        idx = build(segs)
        before = idx.ctx.counters.bbox_comps
        idx.candidate_ids_at_point(Point(110, 110))
        assert idx.ctx.counters.bbox_comps - before == 1

    def test_window_candidates_superset_of_oracle(self):
        rng = random.Random(32)
        segs = random_planar_segments(rng)
        idx = build(segs)
        for _ in range(30):
            x, y = rng.randint(0, 900), rng.randint(0, 900)
            w = Rect(x, y, x + rng.randint(5, 150), y + rng.randint(5, 150))
            got = set(idx.candidate_ids_in_rect(w))
            assert got >= set(oracle_in_window(segs, w))

    def test_window_whole_world_returns_everything(self):
        rng = random.Random(33)
        segs = random_planar_segments(rng)
        idx = build(segs)
        got = set(idx.candidate_ids_in_rect(Rect(0, 0, TEST_WORLD, TEST_WORLD)))
        assert got == set(range(len(segs)))


class TestDeletion:
    def test_delete_removes_from_all_blocks(self):
        segs = lattice_map(n=8, pitch=110)
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, threshold=4, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        victim = ids[7]
        idx.delete(victim)
        got = idx.candidate_ids_in_rect(Rect(0, 0, TEST_WORLD, TEST_WORLD))
        assert victim not in got
        idx.check_invariants()

    def test_delete_merges_blocks(self):
        segs = [Segment(10 + i * 4, 10, 12 + i * 4, 12) for i in range(6)]
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, threshold=4, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        depth_before = idx.depth()
        assert depth_before >= 1
        for sid in ids[:4]:
            idx.delete(sid)
        # Occupancy dropped below the threshold: children merged away.
        assert idx.depth() < depth_before
        idx.check_invariants()

    def test_delete_everything_returns_to_single_block(self):
        segs = lattice_map(n=6, pitch=110)
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, threshold=4, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        rng = random.Random(34)
        rng.shuffle(ids)
        for sid in ids:
            idx.delete(sid)
        assert idx.entry_count() == 0
        assert len(idx.leaf_blocks()) == 1
        idx.check_invariants()

    def test_delete_missing_raises(self):
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, world_size=TEST_WORLD, max_depth=TEST_DEPTH)
        ids = ctx.load_segments([Segment(0, 0, 5, 5), Segment(10, 10, 20, 20)])
        idx.insert(ids[0])
        with pytest.raises(KeyError):
            idx.delete(ids[1])


class TestThresholdBehaviour:
    def test_higher_threshold_less_storage(self):
        """Paper: storage decreases as the splitting threshold increases."""
        rng = random.Random(35)
        segs = random_planar_segments(rng, n_cells=6)
        low = build(segs, threshold=2)
        high = build(segs, threshold=16)
        assert high.entry_count() <= low.entry_count()
        assert len(high.leaf_blocks()) <= len(low.leaf_blocks())

    def test_bucket_occupancy_about_half_threshold(self):
        """Paper: average bucket occupancy is usually ~0.5 x threshold."""
        segs = lattice_map(n=12, pitch=75, jitter=10, seed=8)
        idx = build(segs, threshold=8)
        occ = idx.bucket_occupancy()
        assert 0.2 * 8 <= occ <= 1.1 * 8


class TestStoreBBoxesVariant:
    def test_filtering_reduces_segment_comps(self):
        """The Section 6 variant trades storage for fewer segment comps."""
        segs = lattice_map(n=10, pitch=90)
        plain = build(segs, store_bboxes=False)
        withbb = build(segs, store_bboxes=True)

        from repro.core.queries import QuerySpec, execute_spec

        p = Point(segs[17].x1, segs[17].y1)
        b0 = plain.ctx.counters.segment_comps
        r_plain = execute_spec(plain, QuerySpec.point(p))
        c_plain = plain.ctx.counters.segment_comps - b0

        b0 = withbb.ctx.counters.segment_comps
        r_bb = execute_spec(withbb, QuerySpec.point(p))
        c_bb = withbb.ctx.counters.segment_comps - b0

        assert set(r_plain) == set(r_bb)
        assert c_bb <= c_plain

    def test_variant_uses_more_bytes_per_entry(self):
        segs = lattice_map(n=10, pitch=90)
        plain = build(segs, store_bboxes=False)
        withbb = build(segs, store_bboxes=True)
        assert withbb.btree.leaf_capacity < plain.btree.leaf_capacity

    def test_variant_deletion_works(self):
        segs = lattice_map(n=6, pitch=110)
        ctx = StorageContext.create()
        idx = PMRQuadtree(
            ctx, max_depth=TEST_DEPTH, world_size=TEST_WORLD, store_bboxes=True
        )
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        idx.delete(ids[3])
        assert ids[3] not in idx.candidate_ids_in_rect(
            Rect(0, 0, TEST_WORLD, TEST_WORLD)
        )
        idx.check_invariants()


class TestPropertyBased:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_random_maps(self, seed, threshold):
        rng = random.Random(seed)
        segs = random_planar_segments(rng, n_cells=5)
        idx = build(segs, threshold=threshold)
        idx.check_invariants()
        p = segs[rng.randrange(len(segs))].end
        got = set(idx.candidate_ids_at_point(p))
        assert got >= set(oracle_at_point(segs, p))

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_insert_delete_roundtrip(self, seed):
        rng = random.Random(seed)
        segs = random_planar_segments(rng, n_cells=5)
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, threshold=3, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        victims = ids[1::2]
        for sid in victims:
            idx.delete(sid)
        idx.check_invariants()
        got = set(idx.candidate_ids_in_rect(Rect(0, 0, TEST_WORLD, TEST_WORLD)))
        assert got == set(ids) - set(victims)
