"""Tests for the k-nearest API and the polygon-size survey."""

import random

import pytest

from repro.core.queries import QuerySpec, execute_spec
from repro.data import generate_county
from repro.geometry import Point
from repro.harness import polygon_size_survey
from repro.harness.experiment import build_structure

from tests.conftest import (
    ALL_STRUCTURES,
    build_index,
    oracle_nearest_dist2,
    random_planar_segments,
)


class TestNearestK:
    def test_matches_brute_force_order(self, any_structure):
        rng = random.Random(71)
        segs = random_planar_segments(rng)
        idx = build_index(any_structure, segs)
        p = Point(400, 650)
        k = min(8, len(segs))
        got = execute_spec(idx, QuerySpec.nearest(p, k))
        brute = sorted(
            ((s.distance2_to_point(p), i) for i, s in enumerate(segs))
        )[:k]
        assert [d for _, d in got] == pytest.approx([d for d, _ in brute])

    def test_k_larger_than_index(self, any_structure):
        segs = random_planar_segments(random.Random(72), n_cells=3)
        idx = build_index(any_structure, segs)
        got = execute_spec(idx, QuerySpec.nearest(Point(10, 10), k=10_000))
        assert len(got) == len(segs)

    def test_k_validation(self):
        segs = random_planar_segments(random.Random(73), n_cells=3)
        idx = build_index("PMR", segs)
        with pytest.raises(ValueError):
            execute_spec(idx, QuerySpec.nearest(Point(0, 0), k=0))

    def test_first_of_k_is_the_nearest(self, any_structure):
        rng = random.Random(74)
        segs = random_planar_segments(rng)
        idx = build_index(any_structure, segs)
        p = Point(512, 512)
        got = execute_spec(idx, QuerySpec.nearest(p, 3))
        assert got[0][1] == pytest.approx(oracle_nearest_dist2(segs, p))
        dists = [d for _, d in got]
        assert dists == sorted(dists)


class TestPolygonSurvey:
    @pytest.fixture(scope="class")
    def charles(self):
        return generate_county("charles", scale=0.02)

    def test_survey_runs(self, charles):
        survey = polygon_size_survey(charles, samples=15)
        assert survey.county == "charles"
        assert survey.samples == 15
        assert survey.closed_inner_faces + survey.outer_face_hits <= 15
        if survey.closed_inner_faces:
            assert survey.average_size > 2
            assert survey.max_size >= survey.average_size

    def test_survey_deterministic(self, charles):
        built = build_structure("PMR", charles)
        a = polygon_size_survey(charles, samples=10, seed=5, built=built)
        b = polygon_size_survey(charles, samples=10, seed=5, built=built)
        assert a == b

    def test_survey_reuses_prebuilt(self, charles):
        built = build_structure("PMR", charles)
        survey = polygon_size_survey(charles, samples=10, built=built)
        assert survey.closed_inner_faces >= 0
