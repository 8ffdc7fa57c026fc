"""Tests for map statistics and the full-report generator."""

import json

import pytest

from repro.data import generate_county
from repro.data.generator import MapData
from repro.data.stats import map_statistics
from repro.geometry import Segment
from repro.harness import full_report, render


class TestMapStatistics:
    @pytest.fixture(scope="class")
    def stats(self):
        return map_statistics(generate_county("baltimore", scale=0.02))

    def test_counts(self, stats):
        assert stats.segments > 800
        assert stats.vertices > 400

    def test_degree_histogram_sums_to_vertices(self, stats):
        assert sum(stats.degree_histogram.values()) == stats.vertices
        assert max(stats.degree_histogram) <= 8

    def test_lengths_ordered(self, stats):
        assert 0 < stats.length_min <= stats.length_mean <= stats.length_max

    def test_density_quartiles_sum_to_one(self, stats):
        assert sum(stats.density_quartile_share) == pytest.approx(1.0)
        # The densest quartile of cells holds a disproportionate share.
        assert stats.density_quartile_share[-1] > 0.25

    def test_planar_flag(self, stats):
        assert stats.planar

    def test_broken_map_flagged(self):
        m = MapData(
            "broken",
            [Segment(0, 0, 100, 100), Segment(0, 100, 100, 0)],
            world_size=1024,
        )
        assert not map_statistics(m).planar

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            map_statistics(MapData("empty", [], world_size=1024))

    def test_str_rendering(self, stats):
        text = str(stats)
        assert "baltimore" in text and "degrees" in text


class TestFullReport:
    def test_report_contains_everything(self, tmp_path):
        out = tmp_path / "report.md"
        text = full_report(
            scale=0.01, n_queries=5, counties=["cecil", "charles"], out_path=out
        )
        assert out.exists()
        assert out.read_text() == text
        # The markdown is the rendering of the record written beside it.
        record = json.loads(out.with_suffix(".json").read_text())
        assert render(record) == text
        assert record["config"] == {
            "counties": ["cecil", "charles"],
            "scale": 0.01,
            "queries": 5,
            "seed": 1992,
            "page_size": 1024,
            "pool_pages": 16,
        }
        assert record["figure6"]["county"] == "cecil"
        for marker in (
            "Table 1",
            "Table 2",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "Figure 6",
            "Occupancy",
            "charles",
        ):
            assert marker in text, marker

    def test_cli_report(self, capsys, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "r.md"
        rc = main(
            [
                "report",
                "--scale",
                "0.01",
                "--queries",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.with_suffix(".json").exists()
        text = out.read_text()
        # What each per-artefact command printed, `report` now renders.
        for marker in (
            "Table 1", "map name", "Point1", "Range", "page size",
            "min", "avg", "max", "threshold",
        ):
            assert marker in text, marker
