"""Tests for checkpointed rebalancing: shard split and catch-up."""

import pytest

from repro.data.counties import generate_county
from repro.errors import WalError
from repro.service.server import send_request
from repro.shard import (
    LocalShardSet,
    ShardMap,
    ShardRouter,
    catch_up_shard,
    init_shard_set,
    open_shard,
    split_shard,
)


@pytest.fixture()
def shard_root(tmp_path):
    map_data = generate_county("cecil", scale=0.01)
    root = str(tmp_path / "shards")
    init_shard_set(root, "R+", map_data=map_data, n_shards=3, page_size=2048)
    return root, map_data


class TestSplitOffline:
    def test_split_produces_children_and_bumps_epoch(self, shard_root):
        root, _ = shard_root
        before = ShardMap.load(root)
        result = split_shard(root, "s1")
        after = ShardMap.load(root)
        assert after.epoch == before.epoch + 1
        child_ids = {c["id"] for c in result["children"]}
        assert child_ids == {"s1a", "s1b"}
        assert {s.shard_id for s in after.shards} == {"s0", "s1a", "s1b", "s2"}
        a, b = after.shard("s1a"), after.shard("s1b")
        parent = before.shard("s1")
        assert (a.lo, b.hi) == (parent.lo, parent.hi) and a.hi == b.lo

    def test_children_continue_the_lsn_lineage(self, shard_root):
        root, _ = shard_root
        split_shard(root, "s1")
        lsns = set()
        for shard_id in ("s0", "s1a", "s1b", "s2"):
            _, engine = open_shard(root, shard_id)
            lsns.add(engine.store.last_lsn)
            engine.store.close()
        assert len(lsns) == 1, lsns

    def test_children_tables_are_full_replicas(self, shard_root):
        root, map_data = shard_root
        split_shard(root, "s1")
        for shard_id in ("s1a", "s1b"):
            _, engine = open_shard(root, shard_id)
            assert len(engine.store.index.ctx.segments) == len(
                map_data.segments
            )
            engine.store.close()

    def test_unknown_shard_raises(self, shard_root):
        root, _ = shard_root
        with pytest.raises(KeyError):
            split_shard(root, "nope")


class TestSplitUnderTraffic:
    def test_split_reload_preserves_results(self, shard_root):
        root, map_data = shard_root
        world = map_data.world_size
        with LocalShardSet(root) as shards:
            router = ShardRouter(root)
            router.start_background()
            addr = router.address
            try:
                whole = {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}
                base = send_request(addr, whole)["result"]
                new_id = send_request(
                    addr,
                    {"op": "insert", "x1": 12.0, "y1": 12.0, "x2": 40.0, "y2": 40.0},
                )["result"]
                shards.stop("s1")
                result = split_shard(root, "s1")
                assert result["epoch"] == 2
                shards.start("s1a")
                shards.start("s1b")
                resp = send_request(addr, {"op": "reload"})
                assert resp["ok"] and resp["result"]["epoch"] == 2, resp
                resp = send_request(addr, whole)
                assert resp["ok"], resp
                assert resp["result"] == sorted(set(base) | {new_id})
            finally:
                router.stop()


class TestCatchUp:
    def test_heals_partial_mutations(self, shard_root):
        root, map_data = shard_root
        world = map_data.world_size
        with LocalShardSet(root) as shards:
            router = ShardRouter(root)
            router.start_background()
            addr = router.address
            try:
                whole = {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}
                base = send_request(addr, whole)["result"]
                shards.stop("s0")
                resp = send_request(
                    addr,
                    {
                        "op": "insert",
                        "x1": 500.0,
                        "y1": 500.0,
                        "x2": 900.0,
                        "y2": 900.0,
                    },
                )
                assert not resp["ok"], resp
                assert resp["error"]["code"] == "shard_unavailable"
                applied = resp["partial"]["result"]["applied"]
                assert applied and "s0" not in applied
                healed = catch_up_shard(root, "s0")
                assert healed["shard"] == "s0"
                assert healed["caught_up_records"] == 1
                shards.start("s0")
                resp = send_request(addr, whole)
                assert resp["ok"], resp
                assert len(resp["result"]) == len(base) + 1
                resp = send_request(addr, {"op": "check"})
                assert resp["ok"] and resp["result"]["clean"] is True, resp
                stats = send_request(addr, {"op": "stats"})["result"]
                lsns = {
                    stats["shards"][sid]["last_lsn"]
                    for sid in stats["shards"]
                }
                assert len(lsns) == 1, "replicated logs must agree after heal"
            finally:
                router.stop()

    def test_noop_when_already_caught_up(self, shard_root):
        root, _ = shard_root
        result = catch_up_shard(root, "s0")
        assert result["caught_up_records"] == 0

    def test_self_donation_refused(self, shard_root):
        root, _ = shard_root
        with pytest.raises(ValueError):
            catch_up_shard(root, "s0", donor="s0")

    def test_donor_checkpointed_past_target_fails_loudly(self, shard_root):
        root, _ = shard_root
        # Apply a mutation to s1 only, then checkpoint s1: the record
        # s0 needs has been folded away, so catch-up must refuse.
        from repro.service.api import parse_request

        _, engine = open_shard(root, "s1")
        engine.execute(
            parse_request(
                {"op": "insert", "x1": 3.0, "y1": 3.0, "x2": 7.0, "y2": 7.0}
            )
        )
        engine.store.checkpoint()
        engine.store.close()
        with pytest.raises(WalError):
            catch_up_shard(root, "s0", donor="s1")
