"""Tests for Hilbert locational codes and the curve option of the PMR."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pmr import PMRQuadtree
from repro.core.pmr.blocks import PMRBlock
from repro.core.pmr.locational import hilbert_code, hilbert_index
from repro.core.queries import QuerySpec, execute_spec
from repro.geometry import Point, Rect
from repro.storage import StorageContext

from tests.conftest import (
    TEST_DEPTH,
    TEST_WORLD,
    oracle_at_point,
    oracle_in_window,
    oracle_nearest_dist2,
    random_planar_segments,
)


class TestHilbertIndex:
    def test_order1_values(self):
        # The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        assert hilbert_index(1, 0, 0) == 0
        assert hilbert_index(1, 0, 1) == 1
        assert hilbert_index(1, 1, 1) == 2
        assert hilbert_index(1, 1, 0) == 3

    def test_bijection_small_orders(self):
        for order in (1, 2, 3, 4):
            n = 1 << order
            seen = {hilbert_index(order, x, y) for x in range(n) for y in range(n)}
            assert seen == set(range(n * n))

    def test_curve_is_continuous(self):
        """Consecutive indices map to 4-adjacent cells (the defining
        property Morton lacks)."""
        order = 4
        n = 1 << order
        by_index = {}
        for x in range(n):
            for y in range(n):
                by_index[hilbert_index(order, x, y)] = (x, y)
        for i in range(n * n - 1):
            (x1, y1), (x2, y2) = by_index[i], by_index[i + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1, (i, by_index[i], by_index[i + 1])

    @given(st.integers(1, 8), st.integers(0, 255), st.integers(0, 255))
    def test_index_in_range(self, order, x, y):
        n = 1 << order
        idx = hilbert_index(order, x % n, y % n)
        assert 0 <= idx < n * n


class TestHilbertBlockCodes:
    def test_block_intervals_partition_space(self):
        """Sibling code intervals tile [0, 4^max) without overlap."""
        parent = PMRBlock(0, 0, 0)
        children = parent.split()
        children[0].split()
        max_depth = 5
        intervals = []
        for leaf in parent.iter_leaves():
            lo = hilbert_code(leaf.bx, leaf.by, leaf.depth, max_depth)
            intervals.append((lo, lo + 4 ** (max_depth - leaf.depth)))
        intervals.sort()
        assert intervals[0][0] == 0
        for (a_lo, a_hi), (b_lo, _) in zip(intervals, intervals[1:]):
            assert a_hi == b_lo, intervals
        assert intervals[-1][1] == 4**max_depth

    def test_descendant_codes_inside_parent_interval(self):
        max_depth = 6
        for bx, by, depth in ((1, 2, 2), (0, 0, 1), (3, 1, 2)):
            parent_lo = hilbert_code(bx, by, depth, max_depth)
            parent_hi = parent_lo + 4 ** (max_depth - depth)
            block = PMRBlock(depth, bx, by)
            for child in block.split():
                lo = hilbert_code(child.bx, child.by, child.depth, max_depth)
                assert parent_lo <= lo < parent_hi


class TestHilbertPMR:
    def build(self, segments, curve):
        ctx = StorageContext.create()
        idx = PMRQuadtree(
            ctx, max_depth=TEST_DEPTH, world_size=TEST_WORLD, curve=curve
        )
        for sid in ctx.load_segments(segments):
            idx.insert(sid)
        return idx

    def test_bad_curve_rejected(self):
        with pytest.raises(ValueError):
            PMRQuadtree(StorageContext.create(), curve="peano")

    def test_queries_match_oracle(self):
        rng = random.Random(81)
        segs = random_planar_segments(rng)
        idx = self.build(segs, "hilbert")
        idx.check_invariants()
        for s in segs[:10]:
            assert set(execute_spec(idx, QuerySpec.point(s.start))) == set(
                oracle_at_point(segs, s.start)
            )
        w = Rect(120, 220, 700, 660)
        assert set(execute_spec(idx, QuerySpec.window(w))) == set(
            oracle_in_window(segs, w)
        )
        p = Point(600, 480)
        assert execute_spec(idx, QuerySpec.nearest(p))[0][1] == pytest.approx(
            oracle_nearest_dist2(segs, p)
        )

    def test_same_decomposition_either_curve(self):
        """The curve changes the key order, never the block structure."""
        rng = random.Random(82)
        segs = random_planar_segments(rng)
        morton = self.build(segs, "morton")
        hilbert = self.build(segs, "hilbert")
        blocks_m = sorted((b.depth, b.bx, b.by) for b in morton.leaf_blocks())
        blocks_h = sorted((b.depth, b.bx, b.by) for b in hilbert.leaf_blocks())
        assert blocks_m == blocks_h
        assert morton.entry_count() == hilbert.entry_count()

    def test_deletion_under_hilbert(self):
        rng = random.Random(83)
        segs = random_planar_segments(rng, n_cells=4)
        ctx = StorageContext.create()
        idx = PMRQuadtree(
            ctx, max_depth=TEST_DEPTH, world_size=TEST_WORLD, curve="hilbert"
        )
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        for sid in ids[::2]:
            idx.delete(sid)
        idx.check_invariants()
        got = set(idx.candidate_ids_in_rect(Rect(0, 0, TEST_WORLD, TEST_WORLD)))
        assert got == set(ids) - set(ids[::2])
