"""Unit and property tests for orientation predicates and angular order."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, orientation, pseudo_angle, segments_intersect
from repro.geometry.predicates import collinear_point_on_segment

coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(Point, coords, coords)


class TestOrientation:
    def test_left_turn(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(1, 1)) == 1

    def test_right_turn(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(1, -1)) == -1

    def test_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(3, 3)) == 0

    @given(points, points, points)
    def test_antisymmetry(self, a, b, c):
        assert orientation(a, b, c) == -orientation(a, c, b)

    @given(points, points, points)
    def test_cyclic_invariance(self, a, b, c):
        assert orientation(a, b, c) == orientation(b, c, a) == orientation(c, a, b)


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0))

    def test_shared_endpoint(self):
        assert segments_intersect(Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0))

    def test_t_junction(self):
        assert segments_intersect(Point(0, 0), Point(4, 0), Point(2, 0), Point(2, 3))

    def test_collinear_overlapping(self):
        assert segments_intersect(Point(0, 0), Point(4, 0), Point(2, 0), Point(6, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(
            Point(0, 0), Point(1, 0), Point(3, 0), Point(5, 0)
        )

    def test_parallel_disjoint(self):
        assert not segments_intersect(
            Point(0, 0), Point(4, 0), Point(0, 1), Point(4, 1)
        )

    def test_near_miss(self):
        assert not segments_intersect(
            Point(0, 0), Point(2, 2), Point(3, 0), Point(5, 2)
        )

    @given(points, points, points, points)
    def test_symmetry(self, p1, p2, q1, q2):
        assert segments_intersect(p1, p2, q1, q2) == segments_intersect(q1, q2, p1, p2)

    @given(points, points)
    def test_self_intersection(self, p1, p2):
        assert segments_intersect(p1, p2, p1, p2)


class TestCollinearOnSegment:
    def test_midpoint(self):
        assert collinear_point_on_segment(Point(0, 0), Point(4, 4), Point(2, 2))

    def test_beyond_end(self):
        assert not collinear_point_on_segment(Point(0, 0), Point(4, 4), Point(5, 5))


class TestPseudoAngle:
    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            pseudo_angle(0, 0)

    def test_axis_values(self):
        assert pseudo_angle(1, 0) == 0.0
        assert pseudo_angle(0, 1) == 1.0
        assert pseudo_angle(-1, 0) == 2.0
        assert pseudo_angle(0, -1) == 3.0

    @given(
        st.floats(min_value=0, max_value=2 * math.pi - 1e-9),
        st.floats(min_value=0, max_value=2 * math.pi - 1e-9),
    )
    def test_monotone_with_true_angle(self, t1, t2):
        """pseudo_angle orders directions exactly as atan2 does."""
        a1 = pseudo_angle(math.cos(t1), math.sin(t1))
        a2 = pseudo_angle(math.cos(t2), math.sin(t2))
        if abs(t1 - t2) > 1e-6:
            assert (t1 < t2) == (a1 < a2)

    @given(points.filter(lambda p: p != Point(0, 0)), st.integers(1, 100))
    def test_scale_invariant(self, p, k):
        assert pseudo_angle(p.x, p.y) == pytest.approx(pseudo_angle(k * p.x, k * p.y))

