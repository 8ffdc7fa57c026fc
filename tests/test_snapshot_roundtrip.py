"""Snapshot fidelity: save_index/open_index round-trips are queryable.

The acceptance bar for the service layer: a reopened snapshot serves all
five paper queries with answers identical to the original index, with
identical structure statistics, and with *zero* rebuild inserts (no page
writes at all during or after open).
"""

import io
import random

import pytest

from repro import core
from repro.core.rtree import RStarTree
from repro.core.queries import (
    QuerySpec,
    execute_spec,
)
from repro.data import generate_county
from repro.geometry import Point, Rect, Segment
from repro.harness.experiment import build_structure
from repro.service import open_index, save_index, snapshot_info
from repro.service.snapshot import empty_index_like
from repro.storage import StorageContext
from repro.storage.codec import CodecError

STRUCTURES = ["R*", "R+", "PMR"]


@pytest.fixture(scope="module")
def county():
    return generate_county("cecil", scale=0.01)


@pytest.fixture(scope="module", params=STRUCTURES)
def pair(request, county):
    """(original index, reopened snapshot) for each structure."""
    index = build_structure(request.param, county).index
    buf = io.BytesIO()
    save_index(index, buf)
    buf.seek(0)
    return index, open_index(buf), county


class TestRoundTripQueries:
    def test_zero_rebuild_writes(self, pair):
        _, opened, _ = pair
        assert opened.ctx.counters.disk_writes == 0
        assert opened.ctx.pool.has_dirty() is False

    def test_open_allocates_nothing(self, pair):
        """The index is bound to the pages it was saved with: no
        bootstrap root is allocated to be thrown away, so the reopened
        disk has the original's pages, free list and high-water mark."""
        index, opened, _ = pair
        assert opened.ctx.disk.allocated_ids() == index.ctx.disk.allocated_ids()
        assert opened.ctx.disk.free_ids() == index.ctx.disk.free_ids()
        assert opened.ctx.disk.high_water_bytes == index.ctx.disk.high_water_bytes
        assert len(opened.ctx.pool) == 0

    def test_statistics_identical(self, pair):
        index, opened, _ = pair
        assert opened.page_count() == index.page_count()
        assert opened.height() == index.height()
        assert opened.entry_count() == index.entry_count()
        assert len(opened.ctx.segments) == len(index.ctx.segments)

    def test_invariants_hold(self, pair):
        _, opened, _ = pair
        opened.check_invariants()

    def test_query1_point(self, pair):
        index, opened, county = pair
        for seg in county.segments[:20]:
            p = Point(seg.x1, seg.y1)
            assert sorted(execute_spec(opened, QuerySpec.point(p))) == sorted(
                execute_spec(index, QuerySpec.point(p))
            )

    def test_query2_other_endpoint(self, pair):
        index, opened, county = pair
        for seg_id in range(10):
            seg = county.segments[seg_id]
            p = Point(seg.x1, seg.y1)
            got = execute_spec(opened, QuerySpec.other_endpoint(p, seg_id))
            want = execute_spec(index, QuerySpec.other_endpoint(p, seg_id))
            assert got[0] == want[0]
            assert sorted(got[1]) == sorted(want[1])

    def test_query3_nearest(self, pair):
        index, opened, _ = pair
        rng = random.Random(7)
        for _ in range(15):
            p = Point(rng.uniform(0, 16384), rng.uniform(0, 16384))
            spec = QuerySpec.nearest(p)
            assert execute_spec(opened, spec) == execute_spec(index, spec)

    def test_query4_polygon(self, pair):
        index, opened, county = pair
        seg = county.segments[0]
        p = Point((seg.x1 + seg.x2) / 2 + 0.25, (seg.y1 + seg.y2) / 2 + 0.25)
        got = execute_spec(opened, QuerySpec.polygon(p))
        want = execute_spec(index, QuerySpec.polygon(p))
        assert got == want

    def test_query5_window(self, pair):
        index, opened, _ = pair
        rng = random.Random(11)
        for _ in range(10):
            x, y = rng.uniform(0, 15000), rng.uniform(0, 15000)
            w = Rect(x, y, x + rng.uniform(100, 1500), y + rng.uniform(100, 1500))
            assert sorted(execute_spec(opened, QuerySpec.window(w))) == sorted(
                execute_spec(index, QuerySpec.window(w))
            )

    def test_snapshot_still_mutable(self, pair):
        """A reopened snapshot is a live index: inserts and deletes work."""
        _, opened, _ = pair
        seg_id = opened.ctx.segments.append(Segment(3.0, 3.0, 40.0, 41.0))
        opened.insert(seg_id)
        assert seg_id in execute_spec(opened, QuerySpec.point(Point(3.0, 3.0)))
        opened.delete(seg_id)
        assert seg_id not in execute_spec(opened, QuerySpec.point(Point(3.0, 3.0)))


class TestManifest:
    def test_snapshot_info(self, tmp_path, county):
        index = build_structure("PMR", county).index
        path = tmp_path / "pmr.snap"
        save_index(index, path)
        manifest = snapshot_info(path)
        assert manifest["kind"] == "PMR"
        assert manifest["segments"]["count"] == len(county.segments)
        assert manifest["params"]["threshold"] == index.threshold
        assert manifest["btree"]["root_id"] == index.btree.root_id

    def test_every_row_round_trips(self, county):
        for kind in core.STRUCTURES:
            index = build_structure(kind, county).index
            buf = io.BytesIO()
            save_index(index, buf)
            buf.seek(0)
            opened = open_index(buf)
            assert type(opened) is type(index), kind
            assert opened.params() == index.params(), kind
            assert opened.state() == index.state(), kind

    def test_empty_twin_has_the_parameters_of_the_original(self, county):
        for kind in core.STRUCTURES:
            index = build_structure(kind, county, page_size=2048).index
            twin = empty_index_like(index, StorageContext.create(page_size=2048))
            assert type(twin) is type(index)
            assert twin.params() == index.params()
            assert twin.entry_count() == 0 and twin.page_count() == 1

    def test_pmr_store_bboxes_rejected(self, county):
        index = build_structure("PMR", county, store_bboxes=True).index
        with pytest.raises(CodecError, match="store_bboxes"):
            save_index(index, io.BytesIO())

    def test_a_refused_save_leaves_the_old_file(self, tmp_path, county):
        path = tmp_path / "victim.snap"
        save_index(build_structure("R*", county).index, path)
        before = path.read_bytes()
        # Refused mid-write: a node its page cannot hold (80 entries of
        # 20 bytes on a 1 KiB page), as an R+ overflow is.
        ctx = StorageContext.create()
        over = RStarTree(ctx, capacity=80)
        for seg_id in ctx.load_segments(county.segments[:80]):
            over.insert(seg_id)
        with pytest.raises(CodecError, match="page is 1024"):
            save_index(over, path)
        # Refused before a byte is written.
        pmr = build_structure("PMR", county, store_bboxes=True).index
        with pytest.raises(CodecError, match="store_bboxes"):
            save_index(pmr, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["victim.snap"]
        assert open_index(path).entry_count() > 0

    def test_plain_dump_rejected_by_open(self, county):
        from repro.storage.codec import dump_database

        index = build_structure("R*", county).index
        index.ctx.pool.flush()
        buf = io.BytesIO()
        dump_database(index.ctx.disk, buf)
        buf.seek(0)
        with pytest.raises(CodecError, match="manifest"):
            open_index(buf)
