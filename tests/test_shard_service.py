"""End-to-end tests for the sharded map service.

Every structure the paper compares (R*, R+, PMR) gets its own shard
set, served in-process over loopback TCP behind a scatter-gather
router, and every routed answer is checked probe-identical to an
unsharded oracle over the same segments -- including a segment crafted
to straddle a shard boundary, which cross-shard dedup must report
exactly once.
"""

import ast
import asyncio
import json
import os
import random
import threading

import pytest

from repro.aio import AsyncMapClient, AsyncShardRouter
from repro.analysis import check_shard_set
from repro.core.queries import QuerySpec
from repro.data.counties import generate_county
from repro.geometry import Point, Rect, Segment
from repro import core
from repro.metric_names import COUNTER_FIELDS
from repro.obs.metrics import MetricsRegistry
from repro.service.engine import QueryEngine
from repro.service.server import MapServer, send_request
from repro.shard import (
    LocalShardSet,
    ShardClient,
    ShardMap,
    ShardRouter,
    init_shard_set,
)
from repro.storage.context import StorageContext

# The sharded suite is the most thread-dense path in the repo (router
# scatter pool + per-shard servers + WAL commits); run all of it under
# the runtime lock-order sanitizer so any ordering cycle fails the test
# that first exhibits it, deadlock or not.
pytestmark = pytest.mark.usefixtures("lock_sanitizer")

STRUCTURES = ("R*", "R+", "PMR")
N_SHARDS = 3
SCALE = 0.01
PAGE_SIZE = 2048


class RoutedService:
    """One sharded service plus its unsharded oracle."""

    def __init__(self, root, structure):
        self.map_data = generate_county("cecil", scale=SCALE)
        self.root = root
        self.smap = init_shard_set(
            root,
            structure,
            map_data=self.map_data,
            n_shards=N_SHARDS,
            page_size=PAGE_SIZE,
        )
        ctx = StorageContext.create(page_size=PAGE_SIZE, pool_pages=16)
        index = core.STRUCTURES[structure](ctx)
        for seg_id in ctx.load_segments(self.map_data.segments):
            index.insert(seg_id)
        self.oracle = QueryEngine(index, registry=MetricsRegistry())
        self.shards = LocalShardSet(root)
        self.shards.__enter__()
        self.router = ShardRouter(root)
        self.router.start_background()
        self.addr = self.router.address

    def request(self, payload):
        return send_request(self.addr, payload)

    def close(self):
        self.router.close()
        self.shards.__exit__(None, None, None)


@pytest.fixture(scope="module", params=STRUCTURES)
def service(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"shards-{request.param.replace('*', 'star')}")
    svc = RoutedService(str(root), request.param)
    yield svc
    svc.close()


class TestRoutedReadsMatchOracle:
    def test_windows_probe_identical(self, service):
        rng = random.Random(11)
        world = service.map_data.world_size
        for _ in range(12):
            x, y = rng.uniform(0, world), rng.uniform(0, world)
            span = rng.uniform(10, world / 3)
            resp = service.request(
                {"op": "window", "x1": x, "y1": y, "x2": x + span, "y2": y + span}
            )
            assert resp["ok"], resp
            assert resp["result"] == sorted(
                service.oracle.execute(QuerySpec.window(Rect(x, y, x + span, y + span)))
            )

    def test_points_probe_identical(self, service):
        rng = random.Random(12)
        for seg in rng.sample(service.map_data.segments, 10):
            resp = service.request({"op": "point", "x": seg.x1, "y": seg.y1})
            assert resp["ok"], resp
            assert resp["result"] == sorted(
                service.oracle.execute(QuerySpec.point(seg.start))
            )

    def test_nearest_probe_identical(self, service):
        rng = random.Random(13)
        world = service.map_data.world_size
        for _ in range(8):
            x, y = rng.uniform(0, world), rng.uniform(0, world)
            k = rng.choice([1, 3, 8])
            resp = service.request({"op": "nearest", "x": x, "y": y, "k": k})
            assert resp["ok"], resp
            got = [seg_id for seg_id, _ in resp["result"]]
            want = service.oracle.execute(QuerySpec.nearest(Point(x, y), k))
            want = [seg_id for seg_id, _ in want]
            assert got == want

    def test_results_have_no_duplicates(self, service):
        world = service.map_data.world_size
        resp = service.request(
            {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}
        )
        assert resp["ok"], resp
        assert len(resp["result"]) == len(set(resp["result"]))


class TestBoundaryStraddlingSegment:
    def test_straddler_appears_exactly_once(self, service):
        """A segment indexed by several shards must be reported once.

        The segment is crafted to span two shard extents, inserted
        through the router (so every shard's table gets it and every
        covering shard indexes it), then probed by window and point --
        each must agree with the unsharded oracle, which structurally
        cannot duplicate.
        """
        smap = service.smap
        extents = [smap.extent(s) for s in smap.shards]
        e0, e1 = extents[0], extents[-1]
        seg = Segment(
            (e0.xmin + e0.xmax) / 2,
            (e0.ymin + e0.ymax) / 2,
            (e1.xmin + e1.xmax) / 2,
            (e1.ymin + e1.ymax) / 2,
        )
        covering = [
            s for s in smap.shards if smap.covers(s, seg.mbr())
        ]
        assert len(covering) >= 2, "crafted segment must straddle shards"

        resp = service.request(
            {"op": "insert", "x1": seg.x1, "y1": seg.y1, "x2": seg.x2, "y2": seg.y2}
        )
        assert resp["ok"], resp
        seg_id = resp["result"]
        assert seg_id == service.oracle.insert_segment(seg)
        try:
            rect = seg.mbr()
            resp = service.request(
                {
                    "op": "window",
                    "x1": rect.xmin - 1,
                    "y1": rect.ymin - 1,
                    "x2": rect.xmax + 1,
                    "y2": rect.ymax + 1,
                }
            )
            assert resp["ok"], resp
            assert resp["result"].count(seg_id) == 1
            assert resp["result"] == sorted(
                service.oracle.execute(
                    QuerySpec.window(
                        Rect(rect.xmin - 1, rect.ymin - 1, rect.xmax + 1, rect.ymax + 1)
                    )
                )
            )
            resp = service.request({"op": "point", "x": seg.x1, "y": seg.y1})
            assert resp["ok"], resp
            assert resp["result"].count(seg_id) == 1
            assert resp["result"] == sorted(
                service.oracle.execute(QuerySpec.point(seg.start))
            )
        finally:
            resp = service.request({"op": "delete", "seg_id": seg_id})
            assert resp["ok"] and resp["result"] is True, resp
            service.oracle.delete(seg_id)


class TestMutationsThroughRouter:
    def test_insert_delete_parity(self, service):
        resp = service.request(
            {"op": "insert", "x1": 5.0, "y1": 5.0, "x2": 9.0, "y2": 9.0}
        )
        assert resp["ok"], resp
        seg_id = resp["result"]
        assert seg_id == service.oracle.insert_segment(
            Segment(5.0, 5.0, 9.0, 9.0)
        )
        resp = service.request({"op": "delete", "seg_id": seg_id})
        assert resp["ok"] and resp["result"] is True
        service.oracle.delete(seg_id)
        # A second delete is an error on every shard, merged to one.
        resp = service.request({"op": "delete", "seg_id": seg_id})
        assert not resp["ok"]
        assert resp["error"]["code"] == "unknown_seg"

    def test_batch_merges_positionally(self, service):
        seg = service.map_data.segments[0]
        resp = service.request(
            {
                "op": "batch",
                "requests": [
                    {"op": "point", "x": seg.x1, "y": seg.y1},
                    {"op": "window", "x1": 0, "y1": 0, "x2": 500, "y2": 500},
                ],
            }
        )
        assert resp["ok"], resp
        results = resp["result"]["results"]
        assert results[0] == sorted(service.oracle.execute(QuerySpec.point(seg.start)))
        assert results[1] == sorted(
            service.oracle.execute(QuerySpec.window(Rect(0, 0, 500, 500)))
        )


    def test_mutating_batch_answers_like_a_single_server(self, service):
        """Routed batch members merge through the same rows as the
        standalone ops, so a batch's envelope is the single server's:
        a delete no shard has indexed is ``unknown_seg`` (not a merged
        ``false``), and a malformed member is the router's own
        ``bad_args`` wherever in the batch it sits."""
        single = MapServer(service.oracle)
        try:
            def both(payload):
                line = json.dumps(payload)
                return single.respond(line, None), service.request(payload)

            seg = {"x1": 7.0, "y1": 7.0, "x2": 11.0, "y2": 11.0}
            next_id = len(service.oracle.ctx.segments)
            want, got = both(
                {
                    "op": "batch",
                    "requests": [
                        dict(seg, op="insert"),
                        {"op": "point", "x": 7.0, "y": 7.0},
                        {"op": "delete", "seg_id": next_id},
                        {"op": "point", "x": 7.0, "y": 7.0},
                    ],
                }
            )
            assert want["ok"] and want["result"]["results"][0] == next_id
            for envelope in (want, got):
                del envelope["result"]["disk_accesses"]  # per-topology cost
            assert got == want

            # The same id again: now indexed nowhere.
            want, got = both(
                {"op": "batch", "requests": [{"op": "delete", "seg_id": next_id}]}
            )
            assert want["error"]["code"] == "unknown_seg"
            for envelope in (want, got):
                del envelope["error"]["message"]  # names the structure
            assert got == want

            want, got = both(
                {
                    "op": "batch",
                    "requests": [dict(seg, op="insert"), {"op": "point", "x": 1}],
                }
            )
            assert want["error"]["code"] == "bad_args"
            assert got == want
        finally:
            single.server_close()


class TestBatchClipping:
    def _shard_totals(self, service):
        resp = service.request({"op": "stats"})
        assert resp["ok"], resp
        return {
            sid: dict(entry["totals"])
            for sid, entry in resp["result"]["shards"].items()
        }

    def test_read_only_batch_clips_to_touched_shards(self, service):
        # A point query's geometry touches one (occasionally two) of the
        # three shard regions; a read-only batch must route each member
        # only there, leaving the other shards' counters untouched.
        seg = service.map_data.segments[0]
        before = self._shard_totals(service)
        resp = service.request(
            {
                "op": "batch",
                "use_cache": False,
                "requests": [
                    {"op": "point", "x": seg.x1, "y": seg.y1},
                    {"op": "point", "x": seg.x1, "y": seg.y1},
                ],
            }
        )
        assert resp["ok"], resp
        expected = sorted(service.oracle.execute(QuerySpec.point(seg.start)))
        assert resp["result"]["results"] == [expected, expected]
        after = self._shard_totals(service)
        touched = [sid for sid in after if after[sid] != before[sid]]
        assert 1 <= len(touched) < len(after), touched

    def test_mutating_batch_broadcasts(self, service):
        # Any mutation in the batch forces a whole-batch broadcast so
        # the replicated segment tables stay identical on every shard.
        before = self._shard_totals(service)
        resp = service.request(
            {
                "op": "batch",
                "requests": [
                    {"op": "insert", "x1": 3.0, "y1": 3.0, "x2": 6.0, "y2": 6.0}
                ],
            }
        )
        assert resp["ok"], resp
        seg_id = resp["result"]["results"][0]
        assert seg_id == service.oracle.insert_segment(
            Segment(3.0, 3.0, 6.0, 6.0)
        )
        try:
            after = self._shard_totals(service)
            touched = [sid for sid in after if after[sid] != before[sid]]
            assert sorted(touched) == sorted(after), touched
        finally:
            resp = service.request({"op": "delete", "seg_id": seg_id})
            assert resp["ok"] and resp["result"] is True, resp
            service.oracle.delete(seg_id)


class TestCounterMerge:
    def test_router_totals_are_shard_sums(self, service):
        # Push some traffic first so the counters are warm.
        world = service.map_data.world_size
        for _ in range(3):
            service.request(
                {"op": "window", "x1": 0, "y1": 0, "x2": world / 2, "y2": world / 2}
            )
        resp = service.request({"op": "stats"})
        assert resp["ok"], resp
        stats = resp["result"]
        assert stats["counters_consistent"] is True
        for name in COUNTER_FIELDS:
            assert stats["totals"][name] == sum(
                stats["shards"][sid]["totals"][name]
                for sid in stats["shards"]
            )

    def test_explain_merge_stays_exact(self, service):
        world = service.map_data.world_size
        resp = service.request(
            {
                "op": "explain",
                "query": {
                    "op": "window",
                    "x1": 0,
                    "y1": 0,
                    "x2": world / 4,
                    "y2": world / 4,
                },
            }
        )
        assert resp["ok"], resp
        assert resp["result"]["exact"] is True


class TestDegradationAndHealing:
    def test_down_shard_reports_structured_partial(self, service):
        world = service.map_data.world_size
        down = sorted(service.router.clients)[0]
        service.shards.stop(down)
        try:
            resp = service.request(
                {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}
            )
            assert not resp["ok"], resp
            assert resp["error"]["code"] == "shard_unavailable"
            assert resp["error"]["shard"] == down
            assert "partial" in resp
            assert resp["partial"]["shards"]
        finally:
            service.shards.start(down)
        # Restart heals without touching the router (it re-reads the
        # worker's published address on the next request).
        resp = service.request(
            {"op": "window", "x1": 0, "y1": 0, "x2": world, "y2": world}
        )
        assert resp["ok"], resp
        assert resp["result"] == sorted(
            service.oracle.execute(QuerySpec.window(Rect(0, 0, world, world)))
        )


@pytest.mark.parametrize("front", ["route", "route --async"])
def test_concurrent_mutations_keep_the_replicas_in_step(tmp_path, front):
    """The router orders the fan-outs of writes. Unordered, two inserts
    in flight reach two shards in opposite orders, each shard gives the
    next seg_id to a different segment, and the client is told ``shards
    disagree on seg_id``. Ten seeds of concurrent inserts, over three
    connections -- or one with four in flight -- must end with no error
    and one table on every shard."""
    map_data = generate_county("cecil", scale=SCALE)
    root = str(tmp_path / "shards")
    init_shard_set(
        root, "R*", map_data=map_data, n_shards=N_SHARDS, page_size=PAGE_SIZE
    )

    def inserts(seed, n=12):
        rng = random.Random(seed)
        sites = [rng.uniform(0, map_data.world_size - 2) for _ in range(2 * n)]
        return [
            {"op": "insert", "x1": x, "y1": y, "x2": x + 1.5, "y2": y + 0.5}
            for x, y in zip(sites[::2], sites[1::2])
        ]

    def over_three_connections(address, requests):
        shares = [requests[i::3] for i in range(3)]
        answers = [[] for _ in shares]

        def connection(i):
            answers[i] = [send_request(address, r, timeout=30.0) for r in shares[i]]

        threads = [threading.Thread(target=connection, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        return [answer for share in answers for answer in share]

    async def four_in_flight(address, requests):
        client = await AsyncMapClient.connect(address)
        slots = asyncio.Semaphore(4)

        async def one(request):
            async with slots:
                return await client.request(request)

        try:
            return await asyncio.wait_for(asyncio.gather(*map(one, requests)), 60.0)
        finally:
            await client.close()

    with LocalShardSet(root) as shards:
        if front == "route":
            router = ShardRouter(root)
            stop = router.close
        else:
            router = AsyncShardRouter(root)
            stop = router.stop
        router.start_background()
        try:
            for seed in range(10):
                requests = inserts(seed)
                if front == "route":
                    answers = over_three_connections(router.address, requests)
                else:
                    answers = asyncio.run(four_in_flight(router.address, requests))
                assert len(answers) == len(requests), (front, seed)
                assert all(answer["ok"] for answer in answers), (front, seed, answers)
            stats = send_request(router.address, {"op": "stats"})["result"]
        finally:
            stop()
        tables = [
            [server.engine.ctx.segments.peek(i) for i in range(len(server.engine.ctx.segments))]
            for server in shards.servers.values()
        ]
    sizes = {sid: entry["index"]["segments"] for sid, entry in stats["shards"].items()}
    assert len(sizes) == N_SHARDS and len(set(sizes.values())) == 1, sizes
    assert sizes["s0"] == len(map_data.segments) + 10 * 12
    assert all(table == tables[0] for table in tables[1:])
    assert check_shard_set(root) == []


class TestShardSetChecks:
    def test_routed_check_is_clean(self, service):
        resp = service.request({"op": "check"})
        assert resp["ok"], resp
        assert resp["result"]["clean"] is True

    def test_health_lists_every_shard(self, service):
        resp = service.request({"op": "health"})
        assert resp["ok"], resp
        assert sorted(resp["result"]["shards"]) == sorted(
            s.shard_id for s in service.smap.shards
        )

    def test_reload_is_a_noop_at_same_epoch(self, service):
        resp = service.request({"op": "reload"})
        assert resp["ok"], resp
        assert resp["result"]["epoch"] == ShardMap.load(service.root).epoch


# ----------------------------------------------------------------------
# Degradation table: every routable op x {stopped shard, relayed error}
# ----------------------------------------------------------------------
RELAYED_ERROR = {
    "code": "server_overloaded",
    "message": "relayed by the degradation test",
    "type": "OverloadedError",
}


class _RelayingClient(ShardClient):
    """A shard connection whose worker answers every request with one
    structured error envelope (a live shard refusing, not a dead one)."""

    def request(self, payload, timeout=None):
        return {"ok": False, "error": dict(RELAYED_ERROR)}


class DegradedService:
    """A shard set whose first shard fails every request, one way or the
    other; the survivors stay directly reachable for the oracle."""

    def __init__(self, root, mode):
        self.map_data = generate_county("cecil", scale=SCALE)
        self.smap = init_shard_set(
            root, "R*", map_data=self.map_data, n_shards=N_SHARDS,
            page_size=PAGE_SIZE,
        )
        self.shards = LocalShardSet(root)
        self.shards.__enter__()
        self.router = ShardRouter(root)
        self.router.start_background()
        self.bad = sorted(self.router.clients)[0]
        self.survivors = sorted(set(self.router.clients) - {self.bad})
        if mode == "stopped":
            self.shards.stop(self.bad)
            self.code = "shard_unavailable"
        else:
            self.router.clients[self.bad].close()
            self.router.clients[self.bad] = _RelayingClient(
                self.bad, self.smap.store_path(root, self.bad)
            )
            self.code = RELAYED_ERROR["code"]
        self.relayed = mode == "relayed"

    def request(self, payload):
        return send_request(self.router.address, payload)

    def ask_survivors(self, payload, only=None):
        """The same request put to each surviving worker directly."""
        out = {}
        for sid in self.survivors:
            if only is None or sid in only:
                resp = send_request(self.shards.servers[sid].address, payload)
                assert resp["ok"], resp
                out[sid] = resp["result"]
        return out

    def shared_point(self):
        """A point the failing shard and at least one survivor both own
        (a shared cell corner: ownership is closed on cell edges)."""
        cells = 2 ** self.smap.order
        step = self.smap.world_size / cells
        for i in range(cells + 1):
            for j in range(cells + 1):
                ids = {s.shard_id for s in self.smap.route_point(i * step, j * step)}
                if self.bad in ids and len(ids) > 1:
                    return i * step, j * step
        raise AssertionError("no cell corner is shared with the failing shard")

    def close(self):
        self.router.close()
        self.shards.__exit__(None, None, None)


@pytest.fixture(scope="module", params=["stopped", "relayed"])
def degraded(request, tmp_path_factory):
    svc = DegradedService(
        str(tmp_path_factory.mktemp(f"degraded-{request.param}")), request.param
    )
    yield svc
    svc.close()


def _union(lists):
    return sorted(set().union(*lists))


def _nearest(lists, k):
    best = {}
    for pairs in lists:
        for seg_id, d2 in pairs:
            best[seg_id] = min(d2, best.get(seg_id, d2))
    ranked = sorted(best.items(), key=lambda item: (item[1], item[0]))
    return [[seg_id, d2] for seg_id, d2 in ranked[:k]]


def _world_window(svc):
    w = svc.map_data.world_size
    return {"op": "window", "x1": 0, "y1": 0, "x2": w, "y2": w}


def _point(svc):
    x, y = svc.shared_point()
    return {"op": "point", "x": x, "y": y}


def _nearest_query(svc):
    w = svc.map_data.world_size
    return {"op": "nearest", "x": w / 2, "y": w / 2, "k": 4}


def _read_batch(svc):
    return {
        "op": "batch",
        "requests": [_point(svc), _world_window(svc), _nearest_query(svc)],
    }


def _touched_survivors(svc, member):
    """Surviving shards the router's clip sends this read to."""
    if member["op"] == "nearest":
        return svc.survivors
    if member["op"] == "point":
        specs = svc.smap.route_point(member["x"], member["y"])
    else:
        specs = svc.smap.route_rect(
            Rect(member["x1"], member["y1"], member["x2"], member["y2"])
        )
    return sorted({s.shard_id for s in specs} - {svc.bad})


def _merged_read(svc, member):
    touched = _touched_survivors(svc, member)
    answers = list(svc.ask_survivors(member, only=touched).values())
    if member["op"] == "nearest":
        return _nearest(answers, member["k"])
    return _union(answers)


def _fails(svc, resp):
    """The common half: a structured error naming the failing shard."""
    assert resp["ok"] is False, resp
    assert resp["error"]["code"] == svc.code
    assert resp["error"]["shard"] == svc.bad


def expect_read(svc, payload, resp):
    _fails(svc, resp)
    touched = _touched_survivors(svc, payload)
    assert touched, "the probe must reach a survivor as well"
    assert resp["partial"] == {
        "shards": touched,
        "result": _merged_read(svc, payload),
    }


def expect_read_batch(svc, payload, resp):
    _fails(svc, resp)
    partial = resp["partial"]
    assert partial["shards"] == svc.survivors
    assert partial["result"]["results"] == [
        _merged_read(svc, member) for member in payload["requests"]
    ]
    assert partial["result"]["order"] == "morton"
    assert isinstance(partial["result"]["disk_accesses"], int)


def expect_applied(svc, payload, resp):
    _fails(svc, resp)
    assert resp["partial"] == {
        "shards": svc.survivors,
        "result": {"applied": svc.survivors},
    }


def expect_explain(svc, payload, resp):
    _fails(svc, resp)
    assert resp["partial"]["shards"] == svc.survivors
    merged = resp["partial"]["result"]
    assert sorted(merged["shards"]) == svc.survivors
    assert merged["exact"] is True
    for name in COUNTER_FIELDS:
        assert merged["observed"][name] == sum(
            report["observed"][name] for report in merged["shards"].values()
        )


def expect_checkpoint(svc, payload, resp):
    _fails(svc, resp)
    assert resp["partial"]["shards"] == svc.survivors
    assert sorted(resp["partial"]["result"]) == svc.survivors
    for result in resp["partial"]["result"].values():
        assert "checkpoint_lsn" in result


def expect_prom(svc, payload, resp):
    _fails(svc, resp)
    assert "partial" not in resp


def expect_stats(svc, payload, resp):
    assert resp["ok"] is True, resp
    stats = resp["result"]
    # A shard that answers `stats` with an error is as good as absent.
    assert stats["unavailable"] == [svc.bad]
    assert sorted(stats["shards"]) == svc.survivors
    for name in COUNTER_FIELDS:
        if name != "disk_accesses":
            assert stats["totals"][name] == sum(
                entry["totals"][name] for entry in stats["shards"].values()
            )


def expect_check(svc, payload, resp):
    assert resp["ok"] is True, resp
    result = resp["result"]
    assert result["clean"] is False
    for sid in svc.survivors:
        assert result["shards"][sid]["clean"] is True
    if svc.relayed:
        assert result["unavailable"] == []
        assert result["shards"][svc.bad] == {"clean": False, "error": RELAYED_ERROR}
    else:
        assert result["unavailable"] == [svc.bad]
        assert sorted(result["shards"]) == svc.survivors


def expect_survey(svc, payload, resp):
    """metrics (json), health, trace: per-shard answers side by side. A
    relayed error drops the shard from the view without listing it."""
    assert resp["ok"] is True, resp
    result = resp["result"]
    assert sorted(result["shards"]) == svc.survivors
    assert result["unavailable"] == ([] if svc.relayed else [svc.bad])
    if payload["op"] == "metrics":
        assert "router" in result
    else:
        assert sorted(result) == ["shards", "unavailable"]


DEGRADATION_TABLE = [
    # Reads first: the writes below leave the replicated tables diverged
    # (that is what `applied` reports), which no later row depends on.
    ("point", _point, expect_read),
    ("window", _world_window, expect_read),
    ("nearest", _nearest_query, expect_read),
    ("batch-read-only", _read_batch, expect_read_batch),
    (
        "explain",
        lambda svc: {"op": "explain", "query": _world_window(svc)},
        expect_explain,
    ),
    ("stats", lambda svc: {"op": "stats"}, expect_stats),
    ("check", lambda svc: {"op": "check"}, expect_check),
    ("metrics-json", lambda svc: {"op": "metrics"}, expect_survey),
    ("metrics-prom", lambda svc: {"op": "metrics", "format": "prom"}, expect_prom),
    ("health", lambda svc: {"op": "health"}, expect_survey),
    ("trace", lambda svc: {"op": "trace"}, expect_survey),
    ("checkpoint", lambda svc: {"op": "checkpoint"}, expect_checkpoint),
    (
        "insert",
        lambda svc: {"op": "insert", "x1": 5.0, "y1": 5.0, "x2": 9.0, "y2": 9.0},
        expect_applied,
    ),
    ("delete", lambda svc: {"op": "delete", "seg_id": 0}, expect_applied),
    (
        "batch-mutating",
        lambda svc: {
            "op": "batch",
            "requests": [
                _world_window(svc),
                {"op": "insert", "x1": 3.0, "y1": 3.0, "x2": 6.0, "y2": 6.0},
            ],
        },
        expect_applied,
    ),
]


class TestDegradationTable:
    @pytest.mark.parametrize(
        "build, expect",
        [row[1:] for row in DEGRADATION_TABLE],
        ids=[row[0] for row in DEGRADATION_TABLE],
    )
    def test_op_degrades_as_pinned(self, degraded, build, expect):
        payload = build(degraded)
        expect(degraded, payload, degraded.request(payload))


# ----------------------------------------------------------------------
# The acceptance greps, as a test: each of these exists once
# ----------------------------------------------------------------------
class TestOnePathPerOp:
    SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

    def _call_sites(self, relpaths, is_call):
        """``relpath:Class.method[.nested]`` of every matching call."""
        sites = []
        for relpath in relpaths:
            with open(os.path.join(self.SRC, relpath), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())

            def walk(node, scope):
                if isinstance(node, ast.Call) and is_call(node):
                    sites.append(f"{relpath}:{'.'.join(scope)}")
                named = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                inner = scope + [node.name] if isinstance(node, named) else scope
                for child in ast.iter_child_nodes(node):
                    walk(child, inner)

            walk(tree, [])
        return sorted(sites)

    def _modules(self, *packages):
        return [
            os.path.join(package, name)
            for package in packages
            for name in sorted(os.listdir(os.path.join(self.SRC, package)))
            if name.endswith(".py")
        ]

    def test_only_scatter_submits_request_legs(self):
        def pool_submit(call):
            func = call.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr == "submit"
                and ast.unparse(func.value) == "self._pool"
            )

        # `profile` samples the router *while* its shards sample, so it
        # cannot wait inside _scatter; everything else must.
        assert self._call_sites(["shard/router.py"], pool_submit) == [
            "shard/router.py:RouterCore._merge_profile",
            "shard/router.py:RouterCore._scatter",
        ]

    def test_one_traversal_site_in_the_engine(self):
        with open(os.path.join(self.SRC, "service", "engine.py"), encoding="utf-8") as fh:
            source = fh.read()
        assert source.count('TRACER.span("traverse"') == 1
        assert "_read_thunk" not in source

    @pytest.mark.parametrize(
        "method, engine_site",
        [
            ("log_insert", "service/engine.py:QueryEngine._apply_insert.apply"),
            ("log_delete", "service/engine.py:QueryEngine._apply_delete.apply"),
        ],
    )
    def test_one_function_logs_each_mutation(self, method, engine_site):
        def logs(call):
            return isinstance(call.func, ast.Attribute) and call.func.attr == method

        # The serving path logs in one engine function, which ShardEngine
        # inherits. The other site is not a mutation: shard catch-up
        # copies a peer's WAL suffix into a stopped shard's own log.
        assert self._call_sites(self._modules("service", "shard"), logs) == [
            engine_site,
            "shard/rebalance.py:catch_up_shard",
        ]
