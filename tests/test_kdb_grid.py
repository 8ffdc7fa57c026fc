"""Tests for the k-d-B-tree variant and the uniform grid."""

import random

import pytest

from repro.core import KDBTree, RPlusTree, UniformGrid
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


def build_kdb(segments, **kw):
    ctx = StorageContext.create()
    idx = KDBTree(ctx, world=WORLD, **kw)
    for sid in ctx.load_segments(segments):
        idx.insert(sid)
    return idx


def build_grid(segments, granularity=16):
    ctx = StorageContext.create()
    idx = UniformGrid(ctx, granularity=granularity, world_size=TEST_WORLD)
    for sid in ctx.load_segments(segments):
        idx.insert(sid)
    return idx


class TestKDB:
    def test_same_build_as_hybrid(self):
        """The k-d-B variant shares the hybrid's partition: same pages."""
        segs = lattice_map(n=10, pitch=90)
        kdb = build_kdb(segs, capacity=10)
        ctx = StorageContext.create()
        rplus = RPlusTree(ctx, world=WORLD, capacity=10)
        for sid in ctx.load_segments(segs):
            rplus.insert(sid)
        assert kdb.page_count() == rplus.page_count()
        assert kdb.entry_count() == rplus.entry_count()
        kdb.check_invariants()

    def test_point_query_correct_but_more_candidates(self):
        """No leaf MBRs: correctness holds, candidate counts grow."""
        segs = lattice_map(n=10, pitch=90)
        kdb = build_kdb(segs, capacity=10)
        ctx = StorageContext.create()
        rplus = RPlusTree(ctx, world=WORLD, capacity=10)
        for sid in ctx.load_segments(segs):
            rplus.insert(sid)

        p = Point(segs[42].x1, segs[42].y1)
        kdb_cands = kdb.candidate_ids_at_point(p)
        rplus_cands = rplus.candidate_ids_at_point(p)
        assert set(kdb_cands) >= set(rplus_cands)
        assert len(kdb_cands) >= len(rplus_cands)
        assert set(execute_spec(kdb, QuerySpec.point(p))) == set(
            oracle_at_point(segs, p)
        )

    def test_more_segment_comps_than_hybrid(self):
        """Paper: point search is slightly slower without leaf MBRs."""
        segs = lattice_map(n=10, pitch=90)
        kdb = build_kdb(segs, capacity=10)
        ctx = StorageContext.create()
        rplus = RPlusTree(ctx, world=WORLD, capacity=10)
        for sid in ctx.load_segments(segs):
            rplus.insert(sid)

        total_kdb = total_rplus = 0
        for s in segs[:40]:
            b = kdb.ctx.counters.segment_comps
            execute_spec(kdb, QuerySpec.point(s.start))
            total_kdb += kdb.ctx.counters.segment_comps - b
            b = rplus.ctx.counters.segment_comps
            execute_spec(rplus, QuerySpec.point(s.start))
            total_rplus += rplus.ctx.counters.segment_comps - b
        assert total_kdb > total_rplus

    def test_window_and_nearest_correct(self):
        rng = random.Random(51)
        segs = random_planar_segments(rng)
        kdb = build_kdb(segs, capacity=6)
        w = Rect(100, 100, 500, 500)
        assert set(execute_spec(kdb, QuerySpec.window(w))) == set(
            oracle_in_window(segs, w)
        )
        p = Point(333, 444)
        sid, d2 = execute_spec(kdb, QuerySpec.nearest(p))[0]
        assert d2 == pytest.approx(oracle_nearest_dist2(segs, p))


class TestUniformGrid:
    def test_bad_granularity(self):
        ctx = StorageContext.create()
        with pytest.raises(ValueError):
            UniformGrid(ctx, granularity=10)
        with pytest.raises(ValueError):
            UniformGrid(ctx, granularity=0)

    def test_cells_of_segment_covers_path(self):
        ctx = StorageContext.create()
        grid = UniformGrid(ctx, granularity=8, world_size=TEST_WORLD)
        cells = grid.cells_of_segment(Segment(0, 0, 1023, 1023))
        assert len(cells) >= 8  # the diagonal crosses every level
        assert (0, 0) in cells and (7, 7) in cells
        # An axis-aligned segment in one row crosses only that row.
        cells = grid.cells_of_segment(Segment(10, 10, 1000, 10))
        assert all(cy == 0 for _, cy in cells)
        assert len(cells) == 8

    def test_queries_match_oracles(self):
        rng = random.Random(52)
        segs = random_planar_segments(rng)
        grid = build_grid(segs)
        for s in segs[:20]:
            p = s.start
            assert set(execute_spec(grid, QuerySpec.point(p))) == set(
                oracle_at_point(segs, p)
            )
        w = Rect(200, 150, 640, 700)
        assert set(execute_spec(grid, QuerySpec.window(w))) == set(
            oracle_in_window(segs, w)
        )
        p = Point(511, 300)
        sid, d2 = execute_spec(grid, QuerySpec.nearest(p))[0]
        assert d2 == pytest.approx(oracle_nearest_dist2(segs, p))

    def test_delete(self):
        segs = lattice_map(n=6, pitch=110)
        ctx = StorageContext.create()
        grid = UniformGrid(ctx, granularity=16, world_size=TEST_WORLD)
        ids = ctx.load_segments(segs)
        for sid in ids:
            grid.insert(sid)
        grid.delete(ids[5])
        assert ids[5] not in grid.candidate_ids_in_rect(Rect(0, 0, 1024, 1024))
        grid.check_invariants()
        with pytest.raises(KeyError):
            grid.delete(ids[5])

    def test_invariants(self):
        rng = random.Random(53)
        segs = random_planar_segments(rng)
        grid = build_grid(segs)
        grid.check_invariants()

    def test_skew_wastes_buckets_vs_pmr(self):
        """Section 2: the uniform grid does not adapt to skewed data."""
        # All data in one corner: the PMR only refines there, the grid
        # spends its whole directory regardless.
        segs = [Segment(5 + i, 5, 5 + i, 15) for i in range(0, 60, 3)]
        grid = build_grid(segs, granularity=32)
        from tests.test_pmr import build as build_pmr

        pmr = build_pmr(segs, threshold=4)
        assert len(pmr.leaf_blocks()) < grid.granularity**2
