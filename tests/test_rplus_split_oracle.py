"""The parent's min-cut scan is the oracle of the bisecting split search.

``ParentScanRPlus`` keeps, unchanged, the split-line search the R+-tree
had before it counted by bisection: each candidate line rescans every
extent. The rule -- fewest extents cut, ties by evenness, candidates
visited in the same ``set`` order -- is the same, so twin trees built
over the same map must hold the same pages with the same regions and
entries, and the build must move every ``MetricsCounters`` field
identically.
"""

import random
from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import STRUCTURES, RPlusTree
from repro.data.counties import generate_county
from repro.geometry import Rect
from repro.harness.experiment import build_structure
from repro.storage import StorageContext


def parent_scan(
    self, extents: Sequence[Tuple[float, float, float, float]], region: Rect
) -> Optional[Tuple[int, float]]:
    best: Optional[Tuple[int, float]] = None
    best_key: Optional[Tuple[int, int]] = None
    total = len(extents)

    for axis in (0, 1):
        lo_r = region.xmin if axis == 0 else region.ymin
        hi_r = region.xmax if axis == 0 else region.ymax
        candidates = set()
        for e in extents:
            lo = e[axis]
            hi = e[axis + 2]
            if lo_r < lo < hi_r:
                candidates.add(lo)
            if lo_r < hi < hi_r:
                candidates.add(hi)
        mid = (lo_r + hi_r) / 2.0
        if lo_r < mid < hi_r:
            candidates.add(mid)

        for pos in candidates:
            cuts = left = right = 0
            for e in extents:
                lo = e[axis]
                hi = e[axis + 2]
                if lo < pos < hi:
                    cuts += 1
                    left += 1
                    right += 1
                else:
                    in_left = lo < pos or hi <= pos
                    if in_left:
                        left += 1
                    if hi > pos or lo >= pos:
                        right += 1
            # A split must make progress on at least one side.
            if left >= total and right >= total:
                continue
            key = (cuts, abs(left - right))
            if best_key is None or key < best_key:
                best_key = key
                best = (axis, pos)
    return best


class ParentScanRPlus(RPlusTree):
    """``RPlusTree`` with the parent commit's O(n) rescan per candidate."""

    _choose_split_line = parent_scan


def pages(index):
    """Every page of the tree: leafness and entries -- the child regions
    of an internal node, the segment MBRs of a leaf -- by page id."""
    disk = index.ctx.disk
    return {
        pid: (disk.peek(pid).is_leaf, list(disk.peek(pid).entries))
        for pid in sorted(index._page_ids)
    }


@pytest.fixture(scope="module")
def county_maps():
    return {name: generate_county(name, 0.05) for name in ("cecil", "baltimore")}


@pytest.mark.parametrize("page_size", [512, 1024, 2048])
@pytest.mark.parametrize("county", ["cecil", "baltimore"])
@pytest.mark.parametrize("kind", ["R+"])
def test_same_tree_same_build_counters(
    county_maps, monkeypatch, kind, county, page_size
):
    new = build_structure(kind, county_maps[county], page_size=page_size)
    monkeypatch.setitem(STRUCTURES, kind, ParentScanRPlus)
    old = build_structure(kind, county_maps[county], page_size=page_size)
    assert type(old.index) is ParentScanRPlus

    assert new.build_metrics == old.build_metrics
    assert new.index.root_id == old.index.root_id
    assert new.index.height() == old.index.height()
    assert new.index.entry_count() == old.index.entry_count()
    assert new.index.page_count() == old.index.page_count()
    assert pages(new.index) == pages(old.index)


#: Bounds on a half-unit lattice: extents share bounds with each other,
#: with the region's edges and with its midline.
_HALF = st.integers(0, 16).map(lambda v: v / 2.0)


@st.composite
def split_inputs(draw):
    """A region and extents clipped to it: zero-width, duplicated and
    boundary-touching extents are all common."""
    x0, y0 = draw(_HALF), draw(_HALF)
    w = draw(st.integers(1, 16)) / 2.0
    h = draw(st.integers(1, 16)) / 2.0
    region = Rect(x0, y0, x0 + w, y0 + h)

    def bounds(lo_r, hi_r):
        a = draw(st.integers(0, int(2 * (hi_r - lo_r)))) / 2.0 + lo_r
        b = draw(st.sampled_from((a, lo_r, hi_r, draw(_HALF) + lo_r)))
        b = min(max(b, lo_r), hi_r)
        return min(a, b), max(a, b)

    extents = []
    for _ in range(draw(st.integers(1, 14))):
        xmin, xmax = bounds(region.xmin, region.xmax)
        ymin, ymax = bounds(region.ymin, region.ymax)
        extents.append((xmin, ymin, xmax, ymax))
    for i in draw(st.lists(st.integers(0, len(extents) - 1), max_size=6)):
        extents.append(extents[i])
    random.Random(draw(st.integers(0, 2**16))).shuffle(extents)
    return region, extents


@settings(deadline=None, max_examples=400)
@given(split_inputs())
def test_split_line_matches_the_scan(case):
    region, extents = case
    tree = RPlusTree(StorageContext.create())
    assert tree._choose_split_line(extents, region) == parent_scan(
        tree, extents, region
    )


def test_unsplittable_extents_give_none_for_both():
    region = Rect(0, 0, 8, 8)
    extents = [(0.0, 0.0, 8.0, 8.0)] * 5  # every line cuts every extent
    tree = RPlusTree(StorageContext.create())
    assert tree._choose_split_line(extents, region) is None
    assert parent_scan(tree, extents, region) is None
