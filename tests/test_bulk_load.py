"""Tests for STR bulk loading."""

import random

import pytest

from repro.core.queries import QuerySpec, execute_spec
from repro.core.rtree import GuttmanRTree, RStarTree, bulk_load_str
from repro.geometry import Point, Rect
from repro.storage import StorageContext

from tests.conftest import (
    lattice_map,
    oracle_at_point,
    oracle_in_window,
    oracle_nearest_dist2,
    random_planar_segments,
)


def str_build(segments, cls=RStarTree, fill=1.0, capacity=None):
    ctx = StorageContext.create()
    idx = cls(ctx) if capacity is None else cls(ctx, capacity=capacity)
    ids = ctx.load_segments(segments)
    bulk_load_str(idx, ids, fill=fill)
    return idx


class TestStructure:
    def test_invariants_hold(self):
        segs = lattice_map(n=12, pitch=75, jitter=10, seed=2)
        idx = str_build(segs)
        idx.check_invariants()
        assert idx.entry_count() == len(segs)

    def test_single_leaf_when_few(self):
        idx = str_build(lattice_map(n=3, pitch=100))
        assert idx.height() == 1
        idx.check_invariants()

    def test_empty_load(self):
        ctx = StorageContext.create()
        idx = RStarTree(ctx)
        bulk_load_str(idx, [])
        assert idx.entry_count() == 0
        idx.check_invariants()

    def test_nonempty_tree_rejected(self):
        segs = lattice_map(n=3, pitch=100)
        ctx = StorageContext.create()
        idx = RStarTree(ctx)
        ids = ctx.load_segments(segs)
        idx.insert(ids[0])
        with pytest.raises(ValueError):
            bulk_load_str(idx, ids[1:])

    def test_fill_validation(self):
        ctx = StorageContext.create()
        idx = RStarTree(ctx)
        with pytest.raises(ValueError):
            bulk_load_str(idx, [], fill=0.01)

    def test_packed_denser_than_dynamic(self):
        segs = lattice_map(n=14, pitch=65, jitter=10, seed=3)
        packed = str_build(segs)
        ctx = StorageContext.create()
        dynamic = RStarTree(ctx)
        for sid in ctx.load_segments(segs):
            dynamic.insert(sid)
        assert packed.page_count() < dynamic.page_count()
        assert packed.leaf_occupancy() > dynamic.leaf_occupancy()

    def test_reduced_fill_leaves_headroom(self):
        segs = lattice_map(n=14, pitch=65)
        tight = str_build(segs, fill=1.0)
        loose = str_build(segs, fill=0.7)
        assert loose.page_count() > tight.page_count()
        # Headroom means later inserts don't split immediately.
        loose.check_invariants()


class TestQueriesOnPackedTree:
    def test_queries_match_oracle(self):
        rng = random.Random(91)
        segs = random_planar_segments(rng)
        idx = str_build(segs, capacity=8)
        idx.check_invariants()
        for s in segs[:15]:
            assert set(execute_spec(idx, QuerySpec.point(s.start))) == set(
                oracle_at_point(segs, s.start)
            )
        w = Rect(100, 200, 650, 800)
        assert set(execute_spec(idx, QuerySpec.window(w))) == set(
            oracle_in_window(segs, w)
        )
        p = Point(512, 300)
        assert execute_spec(idx, QuerySpec.nearest(p))[0][1] == pytest.approx(
            oracle_nearest_dist2(segs, p)
        )

    def test_dynamic_insert_after_bulk_load(self):
        segs = lattice_map(n=8, pitch=110)
        ctx = StorageContext.create()
        idx = RStarTree(ctx)
        ids = ctx.load_segments(segs)
        bulk_load_str(idx, ids[:-10], fill=0.7)
        for sid in ids[-10:]:
            idx.insert(sid)
        idx.check_invariants()
        assert idx.entry_count() == len(segs)

    def test_delete_after_bulk_load(self):
        segs = lattice_map(n=8, pitch=110)
        ctx = StorageContext.create()
        idx = GuttmanRTree(ctx)
        ids = ctx.load_segments(segs)
        bulk_load_str(idx, ids)
        for sid in ids[:20]:
            idx.delete(sid)
        idx.check_invariants()
        assert idx.entry_count() == len(segs) - 20

    def test_build_cheaper_than_dynamic(self):
        # Big enough that the dynamic tree outgrows the 16-page pool;
        # below that, both builds run entirely from cache.
        segs = lattice_map(n=25, pitch=38, jitter=6, seed=4)

        ctx1 = StorageContext.create()
        packed = RStarTree(ctx1)
        ids = ctx1.load_segments(segs)
        before = ctx1.counters.snapshot()
        bulk_load_str(packed, ids)
        packed_cost = ctx1.counters.since(before).disk_reads

        ctx2 = StorageContext.create()
        dynamic = RStarTree(ctx2)
        ids = ctx2.load_segments(segs)
        before = ctx2.counters.snapshot()
        for sid in ids:
            dynamic.insert(sid)
        dynamic_cost = ctx2.counters.since(before).disk_reads

        assert packed_cost < dynamic_cost
