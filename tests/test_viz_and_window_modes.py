"""Tests for the ASCII renderers and the window-query modes."""

import pytest

from repro.core.queries import QuerySpec, execute_spec
from repro.geometry import Rect, Segment
from repro.viz import render_pmr_blocks, render_rtree_leaves, render_segments

from tests.conftest import TEST_WORLD, build_index, lattice_map


class TestWindowModes:
    def _index(self):
        return build_index(
            "R*", [Segment(100, 100, 300, 100), Segment(150, 50, 150, 250)]
        )

    def test_intersects_includes_crossers(self):
        idx = self._index()
        got = execute_spec(
            idx, QuerySpec.window(Rect(140, 90, 200, 120), mode="intersects")
        )
        assert set(got) == {0, 1}

    def test_contains_requires_full_containment(self):
        idx = self._index()
        got = execute_spec(
            idx, QuerySpec.window(Rect(140, 90, 200, 120), mode="contains")
        )
        assert got == []
        got = execute_spec(
            idx, QuerySpec.window(Rect(90, 90, 310, 110), mode="contains")
        )
        assert got == [0]

    def test_default_is_intersects(self):
        idx = self._index()
        window = Rect(140, 90, 200, 120)
        assert execute_spec(idx, QuerySpec.window(window)) == execute_spec(
            idx, QuerySpec.window(window, mode="intersects")
        )

    def test_bad_mode_rejected(self):
        idx = self._index()
        with pytest.raises(ValueError):
            execute_spec(idx, QuerySpec.window(Rect(0, 0, 1, 1), mode="touches"))

    def test_contains_subset_of_intersects(self):
        segs = lattice_map(n=6, pitch=110)
        idx = build_index("PMR", segs)
        w = Rect(150, 150, 600, 600)
        inside = set(execute_spec(idx, QuerySpec.window(w, mode="contains")))
        crossing = set(execute_spec(idx, QuerySpec.window(w, mode="intersects")))
        assert inside <= crossing


class TestRenderers:
    def test_render_segments_shape(self):
        segs = [Segment(0, 0, 1000, 1000)]
        art = render_segments(segs, 1024, width=20, height=10)
        lines = art.splitlines()
        assert len(lines) == 12  # body + 2 border lines
        assert all(len(line) == 22 for line in lines)
        assert "*" in art

    def test_diagonal_is_connected(self):
        art = render_segments([Segment(0, 0, 1023, 1023)], 1024, 16, 16)
        body = art.splitlines()[1:-1]
        # Every row the diagonal passes gets at least one mark.
        assert all("*" in row for row in body)

    def test_rect_overlay(self):
        art = render_segments(
            [], 1024, 20, 10, overlay_rects=[Rect(100, 100, 900, 900)]
        )
        assert "+" in art and "-" in art and "|" in art

    def test_size_validation(self):
        with pytest.raises(ValueError):
            render_segments([], 1024, width=1, height=5)

    def test_render_pmr_blocks_counters_untouched(self):
        idx = build_index("PMR", lattice_map(n=6, pitch=110))
        before = idx.ctx.counters.snapshot()
        art = render_pmr_blocks(idx, width=32, height=16)
        assert idx.ctx.counters.snapshot() == before
        assert "*" in art

    def test_render_rtree_leaves(self):
        idx = build_index("R*", lattice_map(n=8, pitch=100))
        art = render_rtree_leaves(idx, TEST_WORLD, width=40, height=20)
        assert "*" in art
        assert "-" in art  # leaf MBR outlines present
