"""Cross-cutting configuration tests: page sizes and pool sizes.

The Figure 6 sweep varies page size (512 B - 4 KiB) and pool size (8-32
pages); these tests pin that every structure stays *correct* under every
configuration, so the sweep measures cost, not bugs.
"""

import random

import pytest

from repro.core import PMRQuadtree, RStarTree
from repro.core.queries import QuerySpec, execute_spec
from repro.geometry import Point, Rect
from repro.storage import StorageContext

from tests.conftest import (
    make_index,
    oracle_at_point,
    oracle_in_window,
    oracle_nearest_dist2,
    random_planar_segments,
)

@pytest.mark.parametrize("page_size", [512, 1024, 2048, 4096])
@pytest.mark.parametrize("kind", ["R*", "R+", "PMR"])
def test_correct_under_every_page_size(kind, page_size):
    rng = random.Random(page_size)
    segs = random_planar_segments(rng)
    ctx = StorageContext.create(page_size=page_size, pool_pages=16)
    idx = make_index(kind, ctx)
    for sid in ctx.load_segments(segs):
        idx.insert(sid)
    idx.check_invariants()

    p = segs[3].start
    assert set(execute_spec(idx, QuerySpec.point(p))) == set(oracle_at_point(segs, p))
    w = Rect(150, 150, 700, 700)
    assert set(execute_spec(idx, QuerySpec.window(w))) == set(oracle_in_window(segs, w))
    q = Point(500, 280)
    assert execute_spec(idx, QuerySpec.nearest(q))[0][1] == pytest.approx(
        oracle_nearest_dist2(segs, q)
    )


@pytest.mark.parametrize("pool_pages", [1, 2, 4, 64])
def test_correct_under_tiny_and_big_pools(pool_pages):
    """A one-page pool thrashes but must never corrupt anything."""
    rng = random.Random(pool_pages)
    segs = random_planar_segments(rng)
    ctx = StorageContext.create(pool_pages=pool_pages)
    idx = RStarTree(ctx)
    for sid in ctx.load_segments(segs):
        idx.insert(sid)
    idx.check_invariants()
    w = Rect(100, 100, 800, 800)
    assert set(execute_spec(idx, QuerySpec.window(w))) == set(oracle_in_window(segs, w))


def test_smaller_pages_mean_more_pages():
    rng = random.Random(7)
    segs = random_planar_segments(rng, n_cells=6)

    def pages(page_size):
        ctx = StorageContext.create(page_size=page_size)
        idx = RStarTree(ctx)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        return idx.page_count()

    assert pages(512) >= pages(2048)


def test_page_size_changes_capacities():
    for page_size, expected_m in ((512, 24), (1024, 50), (2048, 101)):
        ctx = StorageContext.create(page_size=page_size)
        idx = RStarTree(ctx)
        assert idx.capacity == expected_m

    for page_size, expected in ((512, 56), (1024, 120), (2048, 248)):
        ctx = StorageContext.create(page_size=page_size)
        pmr = PMRQuadtree(ctx)
        assert pmr.btree.leaf_capacity == expected


def test_polygon_area_helper():
    from repro.core.queries import QuerySpec, execute_spec
    from tests.conftest import build_index, lattice_map

    segs = lattice_map(n=4, pitch=150)
    idx = build_index("R*", segs)
    r = execute_spec(idx, QuerySpec.polygon(Point(225, 225)))
    assert r.area() == pytest.approx(150 * 150)
