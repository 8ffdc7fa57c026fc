"""Tests for the shard-map manifest: partitioning, routing, persistence."""

import json
import os

import pytest

from repro.core.pmr.locational import hilbert_index, hilbert_point
from repro.geometry import Rect, Segment
from repro.shard import ShardMap, ShardSpec, cell_weights


def make_map(n_shards=4, order=3, world_size=1024.0, **kwargs):
    return ShardMap.partition(
        n_shards, order=order, world_size=world_size, **kwargs
    )


class TestPartition:
    def test_ranges_tile_the_curve(self):
        smap = make_map(4, order=3)
        total = 4**3
        assert smap.shards[0].lo == 0
        assert smap.shards[-1].hi == total
        for a, b in zip(smap.shards, smap.shards[1:]):
            assert a.hi == b.lo

    def test_equal_partition_is_balanced(self):
        smap = make_map(4, order=3)
        sizes = [s.hi - s.lo for s in smap.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_weighted_partition_moves_cuts(self):
        order = 2
        total = 4**order
        # All the weight in the first quarter of the curve: the first
        # shard's range must shrink toward it.
        weights = [10.0] * (total // 4) + [0.0] * (total - total // 4)
        smap = ShardMap.partition(2, order=order, weights=weights)
        equal = ShardMap.partition(2, order=order)
        assert smap.shards[0].hi < equal.shards[0].hi

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ShardMap.partition(0, order=2)
        with pytest.raises(ValueError):
            ShardMap.partition(4**2 + 1, order=2)

    def test_weights_length_validation(self):
        with pytest.raises(ValueError):
            ShardMap.partition(2, order=2, weights=[1.0, 2.0])

    def test_rejects_non_contiguous_tiling(self):
        total = 4**2
        with pytest.raises(ValueError):
            ShardMap(
                [ShardSpec("a", 0, 4), ShardSpec("b", 5, total)], order=2
            )
        with pytest.raises(ValueError):
            ShardMap([ShardSpec("a", 0, total - 1)], order=2)

    def test_rejects_duplicate_ids(self):
        total = 4**2
        with pytest.raises(ValueError):
            ShardMap(
                [ShardSpec("a", 0, 4), ShardSpec("a", 4, total)], order=2
            )


class TestSplit:
    def test_children_tile_the_parent(self):
        smap = make_map(3, order=3)
        parent = smap.shards[1]
        child_map = smap.split(parent.shard_id)
        a = child_map.shard(f"{parent.shard_id}a")
        b = child_map.shard(f"{parent.shard_id}b")
        assert (a.lo, b.hi) == (parent.lo, parent.hi)
        assert a.hi == b.lo
        assert child_map.epoch == smap.epoch + 1

    def test_weighted_split_balances_children(self):
        smap = make_map(1, order=2)
        total = 4**2
        # Weight piled onto the first two cells: the cut stays early.
        weights = [100.0, 100.0] + [0.0] * (total - 2)
        child_map = smap.split("s0", weights=weights)
        assert child_map.shard("s0a").hi <= 2

    def test_single_cell_shard_refuses(self):
        smap = ShardMap(
            [ShardSpec("a", 0, 1), ShardSpec("b", 1, 4)], order=1
        )
        with pytest.raises(ValueError):
            smap.split("a")

    def test_unknown_shard_raises(self):
        with pytest.raises(KeyError):
            make_map(2).split("nope")


class TestRouting:
    def test_extents_cover_the_world(self):
        smap = make_map(4, order=3, world_size=1024.0)
        union = Rect.union_of([smap.extent(s) for s in smap.shards])
        assert union.xmin == 0.0 and union.ymin == 0.0
        assert union.xmax == 1024.0 and union.ymax == 1024.0

    def test_every_point_routes_somewhere(self):
        smap = make_map(4, order=3, world_size=1024.0)
        for x, y in [(0.0, 0.0), (512.0, 512.0), (1023.9, 1023.9)]:
            assert smap.route_point(x, y)

    def test_boundary_rect_routes_to_both_neighbors(self):
        smap = make_map(2, order=3, world_size=1024.0)
        s0, s1 = smap.shards
        e0, e1 = smap.extent(s0), smap.extent(s1)
        # A rect spanning both extents must be covered by both shards.
        xs = ((e0.xmin + e0.xmax) / 2, (e1.xmin + e1.xmax) / 2)
        ys = ((e0.ymin + e0.ymax) / 2, (e1.ymin + e1.ymax) / 2)
        rect = Rect(min(xs), min(ys), max(xs), max(ys))
        assert smap.covers(s0, rect) and smap.covers(s1, rect)

    def test_out_of_world_rect_is_clipped_not_lost(self):
        smap = make_map(2, order=2, world_size=1024.0)
        rect = Rect(-50.0, -50.0, 2000.0, 2000.0)
        routed = smap.route_rect(rect)
        assert {s.shard_id for s in routed} == {
            s.shard_id for s in smap.shards
        }

    def test_index_filter_matches_covers(self):
        smap = make_map(3, order=3, world_size=1024.0)
        spec = smap.shards[0]
        pred = smap.index_filter(spec.shard_id)
        seg = Segment(1.0, 1.0, 5.0, 5.0)
        assert pred(0, seg) == smap.covers(spec, seg.mbr())


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        root = str(tmp_path)
        smap = make_map(4, order=3, world_size=2048.0)
        smap.save(root)
        loaded = ShardMap.load(root)
        assert loaded.to_dict() == smap.to_dict()
        assert loaded.epoch == smap.epoch
        assert [s.to_dict() for s in loaded.shards] == [
            s.to_dict() for s in smap.shards
        ]

    def test_save_leaves_no_temp_file(self, tmp_path):
        root = str(tmp_path)
        make_map(2).save(root)
        names = os.listdir(root)
        assert names == [os.path.basename(ShardMap.path(root))]

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardMap.load(str(tmp_path))

    def test_load_corrupt_raises(self, tmp_path):
        root = str(tmp_path)
        with open(ShardMap.path(root), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(json.JSONDecodeError):
            ShardMap.load(root)


class TestCellWeights:
    def test_weights_cover_the_grid(self):
        segs = [Segment(1.0, 1.0, 5.0, 5.0), Segment(900.0, 900.0, 910.0, 910.0)]
        weights = cell_weights(segs, 3, 1024.0)
        assert len(weights) == 4**3
        assert all(w >= 0 for w in weights)
        assert sum(weights) >= len(segs)

    def test_straddling_segment_weights_both_cells(self):
        order, world = 1, 1024.0
        seg = Segment(200.0, 200.0, 800.0, 800.0)
        weights = cell_weights([seg], order, world)
        assert sum(1 for w in weights if w > 0) >= 2


class TestHilbertPointRoundtrip:
    def test_inverse_of_hilbert_index(self):
        for order in (1, 2, 3, 4):
            n = 1 << order
            for x in range(n):
                for y in range(n):
                    assert hilbert_point(order, hilbert_index(order, x, y)) == (
                        x,
                        y,
                    )

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            hilbert_point(2, 16)
        with pytest.raises(ValueError):
            hilbert_point(2, -1)
