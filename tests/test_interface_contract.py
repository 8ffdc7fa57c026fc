"""Contract tests: behaviours every SpatialIndex must share."""

import pytest

from repro.core.queries import (
    QuerySpec,
    execute_spec,
    iter_nearest,
)
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext

from tests.conftest import ALL_STRUCTURES, TEST_WORLD, build_index, make_index


@pytest.fixture
def empty_index(any_structure):
    return make_index(any_structure, StorageContext.create())


SEGS = [
    Segment(100, 100, 300, 100),
    Segment(300, 100, 300, 300),
    Segment(300, 300, 100, 300),
    Segment(100, 300, 100, 100),
]


class TestEmptyIndex:
    def test_counts(self, empty_index):
        assert empty_index.entry_count() == 0
        assert empty_index.page_count() >= 0
        assert empty_index.height() >= 1

    def test_queries_empty(self, empty_index):
        assert empty_index.candidate_ids_at_point(Point(1, 1)) == []
        assert empty_index.candidate_ids_in_rect(Rect(0, 0, 100, 100)) == []
        assert execute_spec(empty_index, QuerySpec.nearest(Point(5, 5))) == []
        assert list(iter_nearest(empty_index, Point(5, 5))) == []

    def test_invariants_hold(self, empty_index):
        empty_index.check_invariants()


class TestPopulatedContract:
    def test_bytes_used_is_pages_times_page_size(self, any_structure):
        idx = build_index(any_structure, SEGS)
        assert idx.bytes_used() == idx.page_count() * idx.ctx.page_size

    def test_entry_count_at_least_segments(self, any_structure):
        idx = build_index(any_structure, SEGS)
        assert idx.entry_count() >= len(SEGS)

    def test_counters_shared_with_context(self, any_structure):
        idx = build_index(any_structure, SEGS)
        assert idx.counters is idx.ctx.counters

    def test_repr_mentions_size(self, any_structure):
        idx = build_index(any_structure, SEGS)
        text = repr(idx)
        assert type(idx).__name__ in text

    def test_candidates_never_false_negative_on_endpoints(self, any_structure):
        idx = build_index(any_structure, SEGS)
        for i, s in enumerate(SEGS):
            for p in s.endpoints():
                assert i in idx.candidate_ids_at_point(p), (i, p)

    def test_query_layer_results_sorted_ids_unique(self, any_structure):
        idx = build_index(any_structure, SEGS)
        got = execute_spec(idx, QuerySpec.window(Rect(0, 0, TEST_WORLD, TEST_WORLD)))
        assert len(got) == len(set(got))

    def test_point_query_counts_metrics(self, any_structure):
        idx = build_index(any_structure, SEGS)
        before = idx.ctx.counters.snapshot()
        execute_spec(idx, QuerySpec.point(Point(100, 100)))
        delta = idx.ctx.counters.since(before)
        assert delta.segment_comps >= 1
        assert delta.bbox_comps >= 1

    def test_metrics_isolated_between_instances(self, any_structure):
        a = build_index(any_structure, SEGS)
        b = build_index(any_structure, SEGS)
        before_b = b.ctx.counters.snapshot()
        execute_spec(a, QuerySpec.point(Point(100, 100)))
        assert b.ctx.counters.snapshot() == before_b
