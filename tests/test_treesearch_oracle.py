"""The parent's per-entry loops are the oracle of the in-place kernels.

``ref_search_tree``, ``ref_expand_node`` and ``ref_fetch_many`` keep,
unchanged, the R-tree family's traversal before its node entries were
tested in place and a candidate list was fetched in one call: a
``Rect`` predicate called once per entry, ``query_lower_bound`` and
``NNItem(...)`` once per child, ``SegmentTable.fetch`` once per id.

Twin trees are built over one random map, one answering through the
kernels of :mod:`repro.core.treesearch` and
:meth:`~repro.storage.segment_table.SegmentTable.fetch_many`, the other
through these references. After every query both must hold equal refs
in equal order, equal ``MetricsCounters`` and the same buffer-pool
order (``list(pool._frames)``), so every disk access, hit and eviction
happens alike.
"""

from typing import Any, Callable, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import resolve_backend
from repro.core.interface import NNItem, NNQuery, query_lower_bound
from repro.core.queries import QuerySpec
from repro.core.queries.nearest import scalar_nearest_k
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext
from repro.storage.segment_table import SegmentTable
from tests.conftest import build_index

#: A page of 12 R-tree entries and 16 segment records, and a 4-frame
#: pool: a few dozen segments already make two levels, page-crossing
#: fetch runs and evictions.
PAGE_SIZE = 256
POOL_PAGES = 4
KINDS = ["R*", "R+", "R"]


def ref_search_tree(
    ctx: StorageContext, root_id: int, matches: Callable[[Rect, Any], bool], query: Any
) -> List[int]:
    prof = ctx.profile
    pool = ctx.pool
    counters = ctx.counters
    out: List[int] = []
    stack = [root_id]
    while stack:
        page_id = stack.pop()
        if prof is not None:
            prof.open(counters)
        node = pool.get(page_id)
        counters.bbox_comps += len(node.entries)
        matched = [ref for r, ref in node.entries if matches(r, query)]
        if prof is not None:
            prof.close_node(page_id, len(node.entries), matched, node.is_leaf)
        if node.is_leaf:
            out.extend(matched)
        else:
            stack.extend(matched)
    return out


def ref_expand_node(ctx: StorageContext, ref: Any, p: NNQuery) -> List[NNItem]:
    prof = ctx.profile
    if prof is not None:
        prof.open(ctx.counters)
    node = ctx.pool.get(ref)
    n = len(node.entries)
    ctx.counters.bbox_comps += n
    if prof is not None:
        prof.close_node(ref, n, [child for _, child in node.entries], node.is_leaf)
    if node.is_leaf:
        if not node.entries:
            return []
        d = query_lower_bound(p, Rect.union_of(r for r, _ in node.entries))
        return [NNItem(d, True, child) for _, child in node.entries]
    return [
        NNItem(query_lower_bound(p, r), False, child) for r, child in node.entries
    ]


def ref_fetch_many(table: SegmentTable, seg_ids: List[int]) -> List[Segment]:
    return list(map(table.fetch, seg_ids))


def twins(kind: str, segments: List[Segment]):
    """``(kernel, reference)``: two equal trees over ``segments``, the
    second bound to the reference loops."""
    new = build_index(kind, segments, page_size=PAGE_SIZE, pool_pages=POOL_PAGES)
    old = build_index(kind, segments, page_size=PAGE_SIZE, pool_pages=POOL_PAGES)
    ctx = old.ctx
    old.candidate_ids_at_point = lambda p: ref_search_tree(
        ctx, old.root_id, Rect.contains_point, p
    )
    old.candidate_ids_in_rect = lambda r: ref_search_tree(
        ctx, old.root_id, Rect.intersects, r
    )
    old.nn_expand = lambda ref, p: ref_expand_node(ctx, ref, p)
    ctx.segments.fetch_many = lambda ids: ref_fetch_many(ctx.segments, ids)
    for index in (new, old):
        index.ctx.pool.clear()
        index.ctx.counters.reset()
    return new, old


def assert_alike(new, old, run: Callable[[Any], Any]) -> None:
    """``run`` on both twins: equal answers, counters and pool order."""
    got, want = run(new), run(old)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert new.ctx.counters == old.ctx.counters
    assert list(new.ctx.pool._frames) == list(old.ctx.pool._frames)


# Coordinates on a coarse grid: queries land on entry boundaries, and
# horizontal, vertical and repeated edges give zero-width and zero-height
# MBRs.
coord = st.integers(0, 24).map(lambda v: 40 * v)


@st.composite
def maps(draw):
    segments = set()
    for _ in range(draw(st.integers(1, 70))):
        x1, y1 = draw(coord), draw(coord)
        shape = draw(st.sampled_from(["free", "horizontal", "vertical"]))
        x2 = x1 if shape == "vertical" else draw(coord)
        y2 = y1 if shape == "horizontal" else draw(coord)
        if (x1, y1) != (x2, y2):
            segments.add(Segment(x1, y1, x2, y2))
    return sorted(segments)


@st.composite
def windows(draw):
    x1, y1 = draw(coord), draw(coord)
    shape = draw(st.sampled_from(["point", "line", "box"]))
    if shape == "point":  # the zero-extent window
        return Rect(x1, y1, x1, y1)
    x2 = x1 + draw(st.integers(0, 400))
    y2 = y1 if shape == "line" else y1 + draw(st.integers(0, 400))
    return Rect(x1, y1, x2, y2)


points = st.builds(Point, coord, coord) | st.builds(
    Point, st.floats(-100, 1100), st.floats(-100, 1100)
)


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=40)
@given(
    segments=maps().filter(bool),
    rects=st.lists(windows(), min_size=1, max_size=8),
    probes=st.lists(points, min_size=1, max_size=8),
)
def test_queries_match_the_per_entry_loops(kind, segments, rects, probes):
    new, old = twins(kind, segments)
    run = resolve_backend(None).run
    # Segment endpoints are points on entry boundaries.
    probes = probes + [segments[0].start, segments[-1].end]
    for rect in rects:
        assert_alike(new, old, lambda ix: ix.candidate_ids_in_rect(rect))
        assert_alike(new, old, lambda ix: run(ix, QuerySpec.window(rect)))
        assert_alike(
            new, old, lambda ix: run(ix, QuerySpec.window(rect, mode="contains"))
        )
    for p in probes:
        assert_alike(new, old, lambda ix: ix.candidate_ids_at_point(p))
        assert_alike(new, old, lambda ix: run(ix, QuerySpec.point(p)))
        assert_alike(new, old, lambda ix: scalar_nearest_k(ix, p, 3))
        assert_alike(new, old, lambda ix: ix.nn_expand(ix.root_id, p))
    query = segments[len(segments) // 2]
    assert_alike(new, old, lambda ix: scalar_nearest_k(ix, query, 2))


@settings(deadline=None, max_examples=200)
@given(
    count=st.integers(1, 100),
    picks=st.lists(st.integers(0, 99), max_size=40),
    runs=st.lists(st.tuples(st.integers(0, 99), st.integers(1, 20)), max_size=4),
    warm=st.lists(st.integers(0, 99), max_size=6),
)
def test_fetch_many_is_the_per_id_loop(count, picks, runs, warm):
    tables = []
    for _ in range(2):
        ctx = StorageContext.create(page_size=PAGE_SIZE, pool_pages=POOL_PAGES)
        ctx.load_segments([Segment(i, i, i + 1, i + 2) for i in range(count)])
        ctx.pool.clear()
        for seg_id in warm:  # a pool already holding some table pages
            if seg_id < count:
                ctx.segments.fetch(seg_id)
        tables.append(ctx.segments)
    new, old = tables
    # Repeats, and runs of consecutive ids crossing page boundaries.
    ids = [i % count for i in picks]
    for start, length in runs:
        ids += [(start + k) % count for k in range(length)]
    assert new.fetch_many(ids) == ref_fetch_many(old, ids)
    assert new.pool.counters == old.pool.counters
    assert list(new.pool._frames) == list(old.pool._frames)


@pytest.mark.parametrize("bad", [-1, 30, 10**6])
def test_an_out_of_range_id_raises_and_charges_nothing(bad):
    ctx = StorageContext.create(page_size=PAGE_SIZE, pool_pages=POOL_PAGES)
    ctx.load_segments([Segment(i, i, i + 1, i + 2) for i in range(30)])
    ctx.pool.clear()
    ctx.segments.fetch(3)
    before = ctx.counters.snapshot()
    frames = list(ctx.pool._frames)
    with pytest.raises(IndexError, match=f"segment id {bad} out of range"):
        ctx.segments.fetch_many([0, 17, bad, 5])
    assert ctx.counters.snapshot() == before
    assert list(ctx.pool._frames) == frames
