"""The scatter-gather router's asyncio front against a live local shard set.

:class:`ShardRouter` serves one :class:`RouterCore` over v1 lines and
v2 frames: pipelined v2 answers must match v1 answers exactly,
pipelined v2 requests fan out concurrently, ``reload`` drains and swaps
under in-flight traffic, and a down shard degrades to a structured
partial.
"""

import asyncio
import socket

import pytest

from repro.aio import AsyncMapClient
from repro.data.counties import generate_county
from repro.service.server import send_request
from repro.shard import LocalShardSet, ShardRouter, init_shard_set

SCALE = 0.01
N_SHARDS = 3
PAGE_SIZE = 2048


@pytest.fixture(scope="module")
def shard_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("aio_shards")
    map_data = generate_county("cecil", scale=SCALE)
    init_shard_set(
        root, "R*", map_data=map_data, n_shards=N_SHARDS, page_size=PAGE_SIZE
    )
    with LocalShardSet(root) as shards:
        yield root, shards, map_data


@pytest.fixture()
def routed(shard_root):
    root, shards, map_data = shard_root
    router = ShardRouter(root)
    router.start_background()
    yield router, shards, map_data
    router.stop()


def _v2(address, ops):
    async def main():
        client = await AsyncMapClient.connect(address)
        try:
            return await asyncio.gather(*[client.request(op) for op in ops])
        finally:
            await client.close()

    return asyncio.run(main())


class TestRoutedEquivalence:
    def test_v1_ping(self, routed):
        router, _shards, _map_data = routed
        r = send_request(router.address, {"op": "ping"})
        assert r == {"ok": True, "result": "pong"}

    def test_v2_answers_match_v1_lines(self, routed):
        router, _shards, map_data = routed
        world = map_data.world_size
        queries = [
            {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world},
            {"op": "window", "x1": 0, "y1": 0, "x2": world / 3, "y2": world / 3},
            {"op": "point", "x": world / 2, "y": world / 2},
            {"op": "nearest", "x": world / 4, "y": world / 4, "k": 5},
        ]
        golden = [send_request(router.address, q) for q in queries]
        piped = _v2(router.address, queries)
        for q, want, got in zip(queries, golden, piped):
            assert want == got, f"v2 diverged from v1 on {q}"

    def test_stats_sees_every_shard(self, routed):
        router, _shards, _map_data = routed
        (r,) = _v2(router.address, [{"op": "stats"}])
        assert r["ok"], r
        assert sorted(r["result"]["shards"]) == [
            f"s{i}" for i in range(N_SHARDS)
        ]
        assert r["result"]["counters_consistent"] is True

    def test_reload_under_pipelined_traffic(self, routed):
        router, _shards, map_data = routed
        world = map_data.world_size
        window = {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}
        results = _v2(
            router.address, [window, {"op": "reload"}, window, window]
        )
        assert all(r["ok"] for r in results), results
        reload_result = results[1]["result"]
        assert reload_result["epoch"] >= 1
        assert len(reload_result["shards"]) == N_SHARDS
        assert results[0]["result"] == results[2]["result"] == results[3]["result"]

    def test_down_shard_degrades_to_structured_partial(self, routed):
        router, shards, map_data = routed
        world = map_data.world_size
        down = sorted(router.core.clients)[0]
        shards.stop(down)
        try:
            (resp,) = _v2(
                router.address,
                [{"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}],
            )
            assert not resp["ok"], resp
            assert resp["error"]["code"] == "shard_unavailable"
            assert resp["error"]["shard"] == down
            assert resp["partial"]["shards"]
        finally:
            shards.start(down)
        # Healed: the router re-reads the worker's published address.
        (resp,) = _v2(
            router.address,
            [{"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}],
        )
        assert resp["ok"], resp


class TestRequestCounters:
    """Every request counts in ``repro_router_requests_total`` -- above
    all the ones that never decode (``op="invalid"``), which the asyncio
    front used to drop."""

    BAD_SCRIPT = (
        b"this is not json\n"
        b"[1, 2, 3]\n"
        b'"ping"\n'
        b'{"op": "ping", "v": 9}\n'
        b'{"op": "bogus"}\n'
        b'{"op": "insert", "x1": "abc", "y1": 0, "x2": 1, "y2": 1}\n'
        b'{"op": "ping"}\n'
    )

    @staticmethod
    def _counts(registry):
        return {
            counter.labels: counter.value
            for counter in registry.counters()
            if counter.name == "repro_router_requests_total"
        }

    def _drive(self, address):
        with socket.create_connection(address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(self.BAD_SCRIPT)
                fh.flush()
                return [
                    fh.readline() for _ in range(self.BAD_SCRIPT.count(b"\n"))
                ]

    def test_bad_requests_are_counted(self, routed):
        router, _shards, _map_data = routed
        before = self._counts(router.core.registry)
        replies = self._drive(router.address)
        assert all(replies), "every request owes a reply"
        after = self._counts(router.core.registry)
        delta = {
            labels: after[labels] - before.get(labels, 0)
            for labels in after
            if after[labels] != before.get(labels, 0)
        }
        assert delta == {
            (("op", "invalid"), ("status", "error")): 3,
            (("op", "ping"), ("status", "error")): 1,  # refused pin
            (("op", "bogus"), ("status", "error")): 1,
            (("op", "insert"), ("status", "error")): 1,
            (("op", "ping"), ("status", "ok")): 1,
        }
