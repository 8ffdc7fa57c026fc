"""Tests for TIGER Type 2 shape points and chain assembly."""

import pytest

from repro.data import read_chains, read_type1, read_type2, write_type1, write_type2
from repro.data.tiger import TigerFormatError
from repro.geometry import Segment


@pytest.fixture
def chain_files(tmp_path):
    """One straight chain (TLID 1) and one with 12 shape points (TLID 2,
    spanning two Type 2 records)."""
    rt1 = tmp_path / "c.rt1"
    rt2 = tmp_path / "c.rt2"
    write_type1(
        rt1,
        [
            Segment(-76.50, 38.90, -76.49, 38.91),  # TLID 1
            Segment(-76.48, 38.92, -76.40, 38.99),  # TLID 2
        ],
    )
    shape_points = [(-76.48 + i * 0.006, 38.92 + i * 0.005) for i in range(1, 13)]
    write_type2(rt2, {2: shape_points})
    return rt1, rt2, shape_points


class TestType2:
    def test_roundtrip(self, chain_files):
        rt1, rt2, shape_points = chain_files
        shapes = read_type2(rt2)
        assert set(shapes) == {2}
        assert len(shapes[2]) == 12
        for (glon, glat), (elon, elat) in zip(shapes[2], shape_points):
            assert glon == pytest.approx(elon, abs=1e-6)
            assert glat == pytest.approx(elat, abs=1e-6)

    def test_multi_record_order(self, tmp_path):
        # 25 points: three RTSQ records; order must be preserved.
        pts = [(-76.0 + i * 0.001, 38.0 + i * 0.001) for i in range(25)]
        rt2 = tmp_path / "m.rt2"
        n = write_type2(rt2, {7: pts})
        assert n == 3
        got = read_type2(rt2)[7]
        assert len(got) == 25
        assert got[0][0] == pytest.approx(-76.0, abs=1e-6)
        assert got[-1][0] == pytest.approx(-76.0 + 24 * 0.001, abs=1e-6)

    def test_short_record_raises(self, tmp_path):
        rt2 = tmp_path / "bad.rt2"
        rt2.write_text("2 short\n")
        with pytest.raises(TigerFormatError):
            read_type2(rt2)

    def test_other_types_skipped(self, chain_files, tmp_path):
        _, rt2, _ = chain_files
        with open(rt2, "a") as f:
            f.write("1" + " " * 227 + "\n")
        shapes = read_type2(rt2)
        assert set(shapes) == {2}


class TestChainAssembly:
    def test_straight_chain_is_single_segment(self, chain_files):
        rt1, rt2, _ = chain_files
        segments = read_chains(rt1, rt2)
        tl1 = [s for s in segments if s.start == (-76.50, 38.90)]
        assert len(tl1) == 1

    def test_shaped_chain_becomes_polyline(self, chain_files):
        rt1, rt2, shape_points = chain_files
        segments = read_chains(rt1, rt2)
        # TLID 2: endpoints + 12 shape points -> 13 segments; TLID 1 -> 1.
        assert len(segments) == 14
        # The polyline is connected end to end.
        tl2 = segments[1:]
        for a, b in zip(tl2, tl2[1:]):
            assert a.end == b.start
        assert tl2[0].start == (-76.48, 38.92)
        assert tl2[-1].end == pytest.approx((-76.40, 38.99))

    def test_without_rt2_matches_type1(self, chain_files):
        rt1, _, _ = chain_files
        assert read_chains(rt1) == read_type1(rt1)

    def test_chain_pipeline_to_index(self, chain_files):
        """Full path: chains -> normalize -> index -> query."""
        from repro.core import RStarTree
        from repro.core.queries import QuerySpec, execute_spec
        from repro.data import normalize_segments
        from repro.geometry import Point
        from repro.storage import StorageContext

        rt1, rt2, _ = chain_files
        segments = normalize_segments(read_chains(rt1, rt2))
        ctx = StorageContext.create()
        idx = RStarTree(ctx)
        for sid in ctx.load_segments(segments):
            idx.insert(sid)
        idx.check_invariants()
        # Interior chain vertices connect exactly two segments.
        counts = {}
        for s in segments:
            for p in s.endpoints():
                counts[p] = counts.get(p, 0) + 1
        interior = [p for p, c in counts.items() if c == 2]
        assert interior
        got = execute_spec(idx, QuerySpec.point(Point(*interior[0])))
        assert len(got) == 2
