"""Tests for the PM1/PM2/PM3 quadtrees and their contrast with the PMR."""

import random

import pytest

from repro.core import PM1Quadtree, PM2Quadtree, PM3Quadtree, PMRQuadtree
from repro.core.queries import (
    QuerySpec,
    execute_spec,
)
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext

from tests.conftest import (
    TEST_DEPTH,
    TEST_WORLD,
    lattice_map,
    oracle_at_point,
    oracle_in_window,
    oracle_nearest_dist2,
    random_planar_segments,
)

PM_CLASSES = [PM1Quadtree, PM2Quadtree, PM3Quadtree]


def build(cls, segments, max_depth=TEST_DEPTH):
    ctx = StorageContext.create()
    idx = cls(ctx, max_depth=max_depth, world_size=TEST_WORLD)
    for sid in ctx.load_segments(segments):
        idx.insert(sid)
    return idx


@pytest.mark.parametrize("cls", PM_CLASSES)
class TestPMBasics:
    def test_empty(self, cls):
        ctx = StorageContext.create()
        idx = cls(ctx, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        assert idx.entry_count() == 0
        idx.check_invariants()

    def test_single_segment_no_split(self, cls):
        idx = build(cls, [Segment(100, 100, 400, 300)])
        assert len(idx.leaf_blocks()) == 1
        idx.check_invariants()

    def test_two_disjoint_segments_split(self, cls):
        # Two far-apart segments, 4 distinct vertices in one block:
        # every PM variant must decompose.
        idx = build(cls, [Segment(100, 100, 200, 110), Segment(800, 800, 900, 790)])
        assert len(idx.leaf_blocks()) > 1
        idx.check_invariants()

    def test_fan_around_one_vertex(self, cls):
        """A star of segments from one hub: PM1 separates the far
        endpoints, but the hub block itself stays legal everywhere."""
        hub = Point(512, 512)
        spokes = [
            Segment(hub.x, hub.y, 900, 512),
            Segment(hub.x, hub.y, 512, 900),
            Segment(hub.x, hub.y, 130, 512),
            Segment(hub.x, hub.y, 512, 130),
            Segment(hub.x, hub.y, 880, 880),
        ]
        idx = build(cls, spokes)
        idx.check_invariants()
        assert set(execute_spec(idx, QuerySpec.point(hub))) == set(range(len(spokes)))

    def test_queries_match_oracle(self, cls):
        rng = random.Random(17)
        segs = random_planar_segments(rng, n_cells=4)
        idx = build(cls, segs)
        idx.check_invariants()
        for s in segs[:10]:
            got = set(execute_spec(idx, QuerySpec.point(s.start)))
            assert got == set(oracle_at_point(segs, s.start))
        w = Rect(150, 150, 760, 600)
        assert set(execute_spec(idx, QuerySpec.window(w))) == set(
            oracle_in_window(segs, w)
        )
        p = Point(333, 617)
        assert execute_spec(idx, QuerySpec.nearest(p))[0][1] == pytest.approx(
            oracle_nearest_dist2(segs, p)
        )

    def test_delete_merges_back(self, cls):
        segs = [Segment(100, 100, 200, 110), Segment(800, 800, 900, 790)]
        ctx = StorageContext.create()
        idx = cls(ctx, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        ids = ctx.load_segments(segs)
        for sid in ids:
            idx.insert(sid)
        assert len(idx.leaf_blocks()) > 1
        idx.delete(ids[1])
        idx.check_invariants()
        # One segment left: the criteria hold at the root again.
        assert len(idx.leaf_blocks()) == 1

    def test_max_depth_tolerates_violations(self, cls):
        # Two parallel segments one pixel apart: unresolvable at depth 2.
        segs = [Segment(10, 10, 200, 10), Segment(10, 11, 200, 11)]
        ctx = StorageContext.create()
        idx = cls(ctx, max_depth=2, world_size=TEST_WORLD)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        idx.check_invariants()  # max-depth blocks are exempt
        assert idx.depth() <= 2


class TestFamilyOrdering:
    def test_granularity_pm1_ge_pm2_ge_pm3(self):
        rng = random.Random(23)
        segs = random_planar_segments(rng, n_cells=5)
        blocks = {
            cls.__name__: len(build(cls, segs).leaf_blocks())
            for cls in PM_CLASSES
        }
        assert blocks["PM1Quadtree"] >= blocks["PM2Quadtree"] >= blocks["PM3Quadtree"]

    def test_pm2_accepts_vertexless_fan_fragments(self):
        """Edges of one fan crossing a vertexless block: PM2 legal,
        PM1 must keep splitting."""
        hub = Point(512, 512)
        # Many spokes whose far ends cluster: blocks far from the hub see
        # several q-edges of the same fan with no vertex inside.
        spokes = [Segment(hub.x, hub.y, 1000, 400 + 40 * i) for i in range(6)]
        pm1 = build(PM1Quadtree, spokes)
        pm2 = build(PM2Quadtree, spokes)
        pm1.check_invariants()
        pm2.check_invariants()
        assert len(pm2.leaf_blocks()) < len(pm1.leaf_blocks())

    def test_pmr_avoids_pm1_pathology(self):
        """Section 3's motivation for the split-once rule: close parallel
        lines make the PM1 decompose deeply, the PMR does not."""
        segs = [Segment(100, 300 + 2 * i, 900, 300 + 2 * i) for i in range(5)]
        pmr = build_pmr(segs)
        pm1 = build(PM1Quadtree, segs)
        assert pm1.depth() > pmr.depth()
        assert len(pm1.leaf_blocks()) > len(pmr.leaf_blocks())


def build_pmr(segs):
    ctx = StorageContext.create()
    idx = PMRQuadtree(ctx, threshold=4, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
    for sid in ctx.load_segments(segs):
        idx.insert(sid)
    return idx


class TestOnRealisticMap:
    def test_pm_family_on_lattice(self):
        segs = lattice_map(n=6, pitch=110, jitter=15, seed=9)
        for cls in PM_CLASSES:
            idx = build(cls, segs)
            idx.check_invariants()
            # Everything findable.
            got = set(idx.candidate_ids_in_rect(Rect(0, 0, TEST_WORLD, TEST_WORLD)))
            assert got == set(range(len(segs)))
