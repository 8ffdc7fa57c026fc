"""Tests for the map generator, counties, normalization, and TIGER I/O."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    COUNTY_NAMES,
    county_profile,
    generate_county,
    generate_map,
    normalize_segments,
    random_endpoint_queries,
    random_windows,
    read_type1,
    two_stage_points,
    uniform_points,
    write_type1,
)
from repro.data.generator import GeneratorSpec
from repro.data.normalize import bounding_square
from repro.data.tiger import TigerFormatError
from repro.geometry import Point, Segment
from repro.geometry.predicates import segments_intersect


def assert_planar(segments):
    """No two segments meet except at shared endpoints."""
    for i, a in enumerate(segments):
        for b in segments[i + 1 :]:
            if segments_intersect(a.start, a.end, b.start, b.end):
                shared = {a.start, a.end} & {b.start, b.end}
                assert shared, f"crossing without shared endpoint: {a} {b}"


class TestGenerator:
    def _small_spec(self, kind="urban", seed=1, **kw):
        defaults = dict(
            kind=kind,
            target_segments=300,
            seed=seed,
            world_size=4096,
            background=0.5,
        )
        defaults.update(kw)
        return GeneratorSpec(**defaults)

    def test_target_size_approximate(self):
        m = generate_map("t", self._small_spec())
        assert 0.8 * 300 <= len(m) <= 1.2 * 300

    def test_deterministic_by_seed(self):
        a = generate_map("t", self._small_spec(seed=9))
        b = generate_map("t", self._small_spec(seed=9))
        assert a.segments == b.segments

    def test_different_seeds_differ(self):
        a = generate_map("t", self._small_spec(seed=1))
        b = generate_map("t", self._small_spec(seed=2))
        assert a.segments != b.segments

    def test_coordinates_in_world(self):
        m = generate_map("t", self._small_spec())
        for s in m.segments:
            for v in s:
                assert 0 <= v < 4096
                assert v == int(v)

    def test_no_degenerate_segments(self):
        m = generate_map("t", self._small_spec())
        assert not any(s.is_degenerate() for s in m.segments)

    def test_planar_urban(self):
        m = generate_map("t", self._small_spec(kind="urban", diagonal_fraction=0.05))
        assert_planar(m.segments)

    def test_planar_rural_with_tandem(self):
        m = generate_map(
            "t",
            self._small_spec(
                kind="rural", background=0.05, walk_fraction=0.7,
                tandem_probability=0.8,
            ),
        )
        assert_planar(m.segments)

    def test_rejects_tiny_target(self):
        with pytest.raises(ValueError):
            generate_map("t", self._small_spec(target_segments=4))

    @pytest.mark.parametrize("walk_fraction", [2.0, -0.1])
    def test_rejects_a_walk_budget_no_lattice_can_meet(
        self, monkeypatch, walk_fraction
    ):
        """The walks draw edges until the budget is met: past the
        lattice's 2n(n-1) edges that loop never ended."""

        def no_rng(seed):
            raise AssertionError("refused only after drawing from the rng")

        monkeypatch.setattr(random, "Random", no_rng)
        spec = GeneratorSpec(
            kind="urban", target_segments=100, seed=1, walk_fraction=walk_fraction
        )
        with pytest.raises(ValueError, match="walk_fraction"):
            generate_map("t", spec)

    def test_rejects_unknown_kind_by_name(self):
        with pytest.raises(ValueError, match="unknown kind 'forest'"):
            generate_map("t", self._small_spec(kind="forest"))

    def test_no_duplicate_segments(self):
        m = generate_map("t", self._small_spec())
        keys = {tuple(sorted([(s.x1, s.y1), (s.x2, s.y2)])) for s in m.segments}
        assert len(keys) == len(m.segments)

    @settings(deadline=None, max_examples=10)
    @given(st.sampled_from(["urban", "suburban", "rural"]), st.integers(0, 100))
    def test_planarity_property(self, kind, seed):
        spec = GeneratorSpec(
            kind=kind,
            target_segments=150,
            seed=seed,
            world_size=2048,
            background=0.3,
            walk_fraction=0.4 if kind == "rural" else 0.0,
            tandem_probability=0.5 if kind == "rural" else 0.0,
            diagonal_fraction=0.05 if kind == "urban" else 0.0,
        )
        m = generate_map("t", spec)
        assert_planar(m.segments)


class TestMapData:
    def test_endpoint_index(self):
        m = generate_map(
            "t", GeneratorSpec(kind="urban", target_segments=100, seed=3,
                               world_size=2048, background=0.8)
        )
        idx = m.endpoint_index()
        for p, ids in idx.items():
            for sid in ids:
                assert m.segments[sid].has_endpoint(p)

    def test_max_degree_bounded(self):
        m = generate_map(
            "t", GeneratorSpec(kind="suburban", target_segments=200, seed=4,
                               world_size=2048, background=0.6)
        )
        assert m.max_degree() <= 4  # lattice without diagonals


class TestCounties:
    def test_unknown_county_names_the_choices(self):
        with pytest.raises(KeyError, match="unknown county 'nowhere'; choose from"):
            generate_county("nowhere")

    def test_all_counties_named(self):
        assert COUNTY_NAMES == sorted(
            ["anne_arundel", "baltimore", "cecil", "charles", "garrett", "washington"]
        )

    def test_profiles_exist(self):
        for name in COUNTY_NAMES:
            spec = county_profile(name, 1000)
            assert spec.target_segments == 1000

    def test_unknown_county(self):
        with pytest.raises(KeyError):
            county_profile("nowhere", 1000)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            generate_county("charles", scale=0)
        with pytest.raises(ValueError):
            generate_county("charles", scale=1.5)

    def test_generate_scaled(self):
        m = generate_county("cecil", scale=0.02)
        assert 0.7 * 938 <= len(m) <= 1.3 * 938
        assert m.name == "cecil"

    def test_urban_denser_center_than_rural(self):
        """The profiles must produce the paper's density skew."""
        urban = generate_county("baltimore", scale=0.05)
        rural = generate_county("charles", scale=0.05)

        def center_fraction(m):
            lo, hi = 16384 * 0.35, 16384 * 0.65
            inside = sum(
                1 for s in m.segments
                if lo <= (s.x1 + s.x2) / 2 <= hi and lo <= (s.y1 + s.y2) / 2 <= hi
            )
            return inside / len(m.segments)

        assert center_fraction(urban) > center_fraction(rural)


class TestNormalize:
    def test_bounding_square_is_square(self):
        segs = [Segment(0, 0, 10, 4), Segment(10, 4, 20, 6)]
        sq = bounding_square(segs)
        assert sq.width == sq.height == 20

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_square([])
        with pytest.raises(ValueError):
            normalize_segments([])

    def test_zero_extent_raises(self):
        with pytest.raises(ValueError):
            normalize_segments([Segment(5, 5, 5, 5)])

    def test_output_in_grid(self):
        segs = [Segment(-50.1, 38.2, -50.0, 38.25), Segment(-50.0, 38.25, -49.9, 38.3)]
        out = normalize_segments(segs, world_size=16384)
        for s in out:
            for v in s:
                assert 0 <= v <= 16383
                assert v == int(v)

    def test_shared_endpoints_stay_shared(self):
        segs = [Segment(-50.1, 38.2, -50.0, 38.25), Segment(-50.0, 38.25, -49.9, 38.3)]
        out = normalize_segments(segs)
        assert out[0].end == out[1].start

    def test_degenerate_after_snap_dropped(self):
        segs = [
            Segment(0, 0, 1000, 1000),
            Segment(500, 500, 500.0000001, 500.0000001),  # collapses
        ]
        out = normalize_segments(segs)
        assert len(out) == 1


class TestTiger:
    def test_roundtrip(self, tmp_path):
        segs = [
            Segment(-76.51234, 38.912345, -76.498765, 38.920001),
            Segment(-76.498765, 38.920001, -76.48, 38.93),
        ]
        path = tmp_path / "test.rt1"
        n = write_type1(path, segs)
        assert n == 2
        got = read_type1(path)
        assert len(got) == 2
        for a, b in zip(segs, got):
            for va, vb in zip(a, b):
                assert vb == pytest.approx(va, abs=1e-6)

    def test_skips_other_record_types(self, tmp_path):
        segs = [Segment(-76.5, 38.9, -76.4, 38.8)]
        path = tmp_path / "mix.rt1"
        write_type1(path, segs)
        with open(path, "a") as f:
            f.write("2" + " " * 227 + "\n")  # a type-2 record
            f.write("\n")
        assert len(read_type1(path)) == 1

    def test_short_record_raises(self, tmp_path):
        path = tmp_path / "bad.rt1"
        path.write_text("1 too short\n")
        with pytest.raises(TigerFormatError):
            read_type1(path)

    def test_blank_coordinate_raises(self, tmp_path):
        rec = list("1" + " " * 227)
        path = tmp_path / "blank.rt1"
        path.write_text("".join(rec) + "\n")
        with pytest.raises(TigerFormatError):
            read_type1(path)

    def test_overflow_coordinate_raises(self, tmp_path):
        with pytest.raises(TigerFormatError):
            write_type1(tmp_path / "x.rt1", [Segment(-7000, 38, -76, 39)])

    def test_tiger_to_normalized_pipeline(self, tmp_path):
        segs = [
            Segment(-76.51, 38.91, -76.49, 38.92),
            Segment(-76.49, 38.92, -76.48, 38.93),
        ]
        path = tmp_path / "county.rt1"
        write_type1(path, segs)
        normalized = normalize_segments(read_type1(path))
        assert len(normalized) == 2
        assert normalized[0].end == normalized[1].start


class TestQueryPoints:
    def test_uniform_points_in_world(self):
        rng = random.Random(1)
        pts = uniform_points(50, rng, world_size=2048)
        assert len(pts) == 50
        assert all(0 <= p.x < 2048 and 0 <= p.y < 2048 for p in pts)

    def test_two_stage_points_inside_blocks(self):
        from tests.conftest import build_index, lattice_map

        idx = build_index("PMR", lattice_map(n=8, pitch=110))
        rng = random.Random(2)
        pts = two_stage_points(50, rng, idx)
        blocks = idx.leaf_blocks()
        for p in pts:
            assert any(b.rect(idx.world_size).contains_point(p) for b in blocks)

    def test_two_stage_correlates_with_density(self):
        """Dense areas must be sampled more often per unit area."""
        from tests.conftest import build_index
        from repro.geometry import Segment as S

        # Dense cluster in the SW corner, nothing elsewhere.
        segs = [S(8 + i, 8, 10 + i, 10) for i in range(0, 40, 2)]
        idx = build_index("PMR", segs)
        rng = random.Random(3)
        pts = two_stage_points(400, rng, idx)
        sw = sum(1 for p in pts if p.x < 512 and p.y < 512)
        # Uniform sampling would put ~25% in the SW quadrant of the world.
        assert sw / len(pts) > 0.4

    def test_endpoint_queries_are_real_endpoints(self):
        m = generate_county("cecil", scale=0.02)
        rng = random.Random(4)
        qs = random_endpoint_queries(30, rng, m)
        for p, sid in qs:
            assert m.segments[sid].has_endpoint(p)

    def test_windows_have_requested_area(self):
        rng = random.Random(5)
        wins = random_windows(20, rng, world_size=16384, area_fraction=0.0001)
        for w in wins:
            assert w.width == w.height
            assert abs(w.width - 164) <= 2  # sqrt(0.0001) * 16384 = 163.84
            assert 0 <= w.xmin and w.xmax < 16384
