"""Tests for complete face extraction (polygonization)."""

import random

import pytest

from repro.data import generate_county
from repro.data.faces import extract_faces
from repro.geometry import Point, Segment

from tests.conftest import lattice_map, random_planar_segments


class TestSmallGraphs:
    def test_single_square(self):
        segs = [
            Segment(0, 0, 10, 0),
            Segment(10, 0, 10, 10),
            Segment(10, 10, 0, 10),
            Segment(0, 10, 0, 0),
        ]
        fs = extract_faces(segs)
        assert len(fs.faces) == 2  # inner + outer
        inner = fs.inner_faces()
        assert len(inner) == 1
        assert inner[0].size == 4
        assert inner[0].area() == pytest.approx(100)
        assert fs.euler_consistent()

    def test_single_edge(self):
        fs = extract_faces([Segment(0, 0, 10, 0)])
        # One face: out and back along the bridge.
        assert len(fs.faces) == 1
        assert fs.faces[0].size == 2
        assert fs.faces[0].is_outer
        assert fs.euler_consistent()

    def test_two_components(self):
        segs = [
            # Square 1
            Segment(0, 0, 10, 0), Segment(10, 0, 10, 10),
            Segment(10, 10, 0, 10), Segment(0, 10, 0, 0),
            # A far-away bridge edge
            Segment(100, 100, 120, 100),
        ]
        fs = extract_faces(segs)
        assert fs.components == 2
        assert fs.euler_consistent()
        assert len(fs.inner_faces()) == 1

    def test_square_with_dangling_stub(self):
        segs = [
            Segment(0, 0, 10, 0),
            Segment(10, 0, 10, 10),
            Segment(10, 10, 0, 10),
            Segment(0, 10, 0, 0),
            Segment(10, 10, 15, 15),  # stub outward
        ]
        fs = extract_faces(segs)
        assert fs.euler_consistent()
        inner = fs.inner_faces()
        assert len(inner) == 1 and inner[0].size == 4
        outer = [f for f in fs.faces if f.is_outer]
        assert len(outer) == 1
        assert outer[0].seg_ids.count(4) == 2  # stub walked both ways

    def test_grid_lattice_counts(self):
        n = 5
        segs = lattice_map(n=n, pitch=100)
        fs = extract_faces(segs)
        assert fs.euler_consistent()
        assert len(fs.inner_faces()) == (n - 1) ** 2
        assert all(f.size == 4 for f in fs.inner_faces())

    def test_degenerate_segments_ignored(self):
        segs = [Segment(0, 0, 10, 0), Segment(5, 5, 5, 5)]
        fs = extract_faces(segs)
        assert fs.edges == 1
        assert fs.euler_consistent()

    def test_empty(self):
        fs = extract_faces([])
        assert fs.faces == []
        assert fs.euler_consistent()  # 0 == 0


class TestEulerOnRandomMaps:
    @pytest.mark.parametrize("seed", range(8))
    def test_euler_formula(self, seed):
        rng = random.Random(seed * 977)
        segs = random_planar_segments(rng, n_cells=6)
        fs = extract_faces(segs)
        assert fs.euler_consistent(), (
            fs.vertices, fs.edges, fs.components, len(fs.faces)
        )

    def test_every_half_edge_in_exactly_one_face(self):
        rng = random.Random(4242)
        segs = random_planar_segments(rng, n_cells=5)
        fs = extract_faces(segs)
        total_half_edges = sum(f.size for f in fs.faces)
        assert total_half_edges == 2 * fs.edges


class TestOnCounties:
    def test_county_polygonization(self):
        m = generate_county("baltimore", scale=0.02)
        fs = extract_faces(m.segments)
        assert fs.euler_consistent()
        assert fs.average_inner_size() > 3

    def test_matches_sampled_survey_direction(self):
        """The exact face inventory must agree with the sampled survey:
        urban blocks are far smaller than rural polygons."""
        urban = extract_faces(generate_county("baltimore", scale=0.02).segments)
        rural = extract_faces(generate_county("charles", scale=0.02).segments)
        assert rural.average_inner_size() > urban.average_inner_size()

    def test_agrees_with_enclosing_polygon_query(self):
        """Query 4's face must appear in the exhaustive inventory."""
        from repro.core.queries import QuerySpec, execute_spec
        from tests.conftest import build_index

        segs = lattice_map(n=5, pitch=120)
        fs = extract_faces(segs)
        idx = build_index("R*", segs)
        r = execute_spec(idx, QuerySpec.polygon(Point(350, 290)))
        keys = {frozenset(f.seg_ids) for f in fs.faces}
        assert frozenset(r.seg_ids) in keys
