"""Unit and property tests for Rect."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect

coords = st.integers(min_value=0, max_value=16383)


def rects():
    return st.builds(
        lambda x1, y1, x2, y2: Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)),
        coords,
        coords,
        coords,
        coords,
    )


class TestConstruction:
    def test_from_points_orders_corners(self):
        r = Rect.from_points(Point(5, 1), Point(2, 9))
        assert r == Rect(2, 1, 5, 9)

    def test_from_points_degenerate(self):
        r = Rect.from_points(Point(3, 3), Point(3, 3))
        assert r == Rect(3, 3, 3, 3)
        assert r.area() == 0
        assert r.is_valid

    def test_union_of_single(self):
        r = Rect(1, 2, 3, 4)
        assert Rect.union_of([r]) == r

    def test_union_of_many(self):
        r = Rect.union_of([Rect(0, 0, 1, 1), Rect(5, 5, 6, 6), Rect(2, -1, 3, 0)])
        assert r == Rect(0, -1, 6, 6)

    def test_union_of_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.union_of([])


class TestScalars:
    def test_area_perimeter(self):
        r = Rect(0, 0, 4, 3)
        assert r.area() == 12
        assert r.perimeter() == 14
        assert r.width == 4
        assert r.height == 3

    def test_center(self):
        assert Rect(0, 0, 4, 2).center() == Point(2, 1)


class TestPredicates:
    def test_contains_point_boundary(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(10, 10))
        assert r.contains_point(Point(5, 10))
        assert not r.contains_point(Point(10.001, 5))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(2, 2, 8, 8))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(2, 2, 11, 8))

    def test_intersects_touching_edge(self):
        assert Rect(0, 0, 5, 5).intersects(Rect(5, 0, 10, 5))

    def test_intersects_touching_corner(self):
        assert Rect(0, 0, 5, 5).intersects(Rect(5, 5, 10, 10))

    def test_disjoint(self):
        assert not Rect(0, 0, 5, 5).intersects(Rect(6, 6, 10, 10))


class TestCombinators:
    def test_merged(self):
        assert Rect(0, 0, 2, 2).merged(Rect(5, 5, 6, 6)) == Rect(0, 0, 6, 6)

    def test_intersection_none_when_disjoint(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_intersection_degenerate_touch(self):
        r = Rect(0, 0, 5, 5).intersection(Rect(5, 0, 10, 5))
        assert r == Rect(5, 0, 5, 5)
        assert r.area() == 0

    def test_overlap_area(self):
        assert Rect(0, 0, 4, 4).overlap_area(Rect(2, 2, 6, 6)) == 4
        assert Rect(0, 0, 4, 4).overlap_area(Rect(4, 4, 6, 6)) == 0

    def test_enlargement_zero_when_contained(self):
        assert Rect(0, 0, 10, 10).enlargement(Rect(1, 1, 2, 2)) == 0

    def test_enlargement_positive(self):
        assert Rect(0, 0, 2, 2).enlargement(Rect(2, 0, 4, 2)) == 4


class TestProperties:
    @given(rects(), rects())
    def test_merged_contains_both(self, a, b):
        m = a.merged(b)
        assert m.contains_rect(a)
        assert m.contains_rect(b)

    @given(rects(), rects())
    def test_merged_commutes(self, a, b):
        assert a.merged(b) == b.merged(a)

    @given(rects(), rects())
    def test_intersection_symmetry_and_consistency(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.intersects(b)
        assert inter == b.intersection(a)
        if inter is not None:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)

    @given(rects(), rects())
    def test_overlap_area_matches_intersection(self, a, b):
        inter = a.intersection(b)
        expected = inter.area() if inter is not None else 0.0
        assert a.overlap_area(b) == expected

    @given(rects(), rects())
    def test_enlargement_nonnegative(self, a, b):
        assert a.enlargement(b) >= 0

    @given(rects())
    def test_union_of_idempotent(self, a):
        assert Rect.union_of([a, a, a]) == a
