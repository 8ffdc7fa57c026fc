"""The concurrent query engine: latching, attribution, caching."""

import random
import threading

import pytest

from repro.analysis import check_index
from repro.core.queries import QuerySpec, execute_spec
from repro.data import generate_county
from repro.geometry import Point, Rect, Segment
from repro.harness.experiment import build_structure
from repro.service import Protocol, QueryEngine, ResultCache, parse_request
from repro.shard import LocalShardSet, RouterCore, init_shard_set
from repro.storage import Latch
from repro.storage.counters import MetricsCounters
from repro.wal import DurableStore

from tests.conftest import build_index, lattice_map


@pytest.fixture()
def engine():
    return QueryEngine(build_index("R*", lattice_map(n=8)), cache_capacity=64)


class TestAttribution:
    def test_sessions_sum_to_totals(self, engine):
        a = engine.session("alice")
        b = engine.session("bob")
        engine.execute(QuerySpec.point(Point(100, 100)), session=a)
        engine.execute(QuerySpec.window(Rect(0, 0, 500, 500)), session=b)
        engine.execute(QuerySpec.nearest(Point(321, 321)), session=a)
        assert engine.counters_consistent()
        assert a.counters.disk_accesses > 0 or a.counters.buffer_hits > 0
        total = MetricsCounters()
        total.merge(a.counters)
        total.merge(b.counters)
        assert total == engine.totals

    def test_concurrent_sessions_stay_consistent(self, engine):
        def worker(name):
            session = engine.session(name)
            rng = random.Random(sum(map(ord, name)))
            for _ in range(50):
                roll = rng.random()
                if roll < 0.4:
                    spec = QuerySpec.point(Point(rng.randrange(900), rng.randrange(900)))
                elif roll < 0.8:
                    x, y = rng.randrange(800), rng.randrange(800)
                    spec = QuerySpec.window(Rect(x, y, x + 150, y + 150))
                else:
                    spec = QuerySpec.nearest(Point(rng.randrange(900), rng.randrange(900)))
                engine.execute(spec, session=session)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert engine.counters_consistent()
        assert len(engine.sessions()) == 4
        assert engine.totals.disk_accesses + engine.totals.buffer_hits > 0

    def test_shared_counters_untouched_by_queries(self, engine):
        base = engine.ctx.counters.snapshot()
        engine.execute(QuerySpec.window(Rect(0, 0, 800, 800)))
        assert engine.ctx.counters.snapshot() == base

    def test_query_answers_match_direct_calls(self, engine):
        direct = sorted(
            execute_spec(engine.index, QuerySpec.window(Rect(0, 0, 450, 450)))
        )
        served = sorted(engine.execute(QuerySpec.window(Rect(0, 0, 450, 450))))
        assert served == direct


class TestCaching:
    def test_repeat_query_hits_cache(self, engine):
        session = engine.session("s")
        first = engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)), session=session)
        before = session.counters.snapshot()
        second = engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)), session=session)
        assert second == first
        assert session.counters.since(before).disk_reads == 0
        assert session.cache_hits == 1
        assert engine.cache.stats()["hits"] == 1

    def test_window_key_canonicalized(self, engine):
        engine.execute(QuerySpec.window(Rect(300, 300, 0, 0)))
        engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)))
        assert engine.cache.stats()["hits"] == 1

    def test_insert_invalidates(self, engine):
        engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)))
        assert len(engine.cache) == 1
        seg_id = engine.insert_segment(Segment(10.0, 10.0, 90.0, 95.0))
        assert len(engine.cache) == 0
        assert engine.cache.stats()["invalidations"] == 1
        # the new segment is immediately visible (no stale cache entry)
        assert seg_id in engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)))

    def test_delete_invalidates_and_removes(self, engine):
        seg_id = engine.insert_segment(Segment(10.0, 10.0, 90.0, 95.0))
        assert seg_id in engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)))
        engine.delete(seg_id)
        assert len(engine.cache) == 0
        assert seg_id not in engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)))
        assert engine.counters_consistent()

    def test_use_cache_false_bypasses(self, engine):
        engine.execute(
            parse_request(
                {"op": "window", "x1": 0, "y1": 0, "x2": 300, "y2": 300, "use_cache": False}
            )
        )
        assert len(engine.cache) == 0


class TestMutationInvalidation:
    """Regression: every mutation path must invalidate the result cache."""

    def test_batch_mutations_invalidate(self, engine):
        from repro.service import BatchExecutor

        batch = BatchExecutor(engine)
        stale = engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)))
        result = batch.execute(
            [
                {"op": "window", "x1": 0, "y1": 0, "x2": 300, "y2": 300},
                {"op": "insert", "x1": 20.0, "y1": 20.0, "x2": 80.0, "y2": 85.0},
                {"op": "window", "x1": 0, "y1": 0, "x2": 300, "y2": 300},
            ]
        )
        seg_id = result.results[1]
        assert result.results[0] == stale  # read scheduled before the barrier
        assert seg_id in result.results[2]  # read after the barrier sees it
        batch.execute([{"op": "delete", "seg_id": seg_id}])
        assert seg_id not in engine.execute(QuerySpec.window(Rect(0, 0, 300, 300)))
        assert engine.counters_consistent()

    def test_batch_barrier_pins_mutation_position(self, engine):
        from repro.service.batch import BatchExecutor

        batch = BatchExecutor(engine)
        requests = [
            {"op": "point", "x": 700, "y": 700},
            {"op": "insert", "x1": 1.0, "y1": 2.0, "x2": 3.0, "y2": 4.0},
            {"op": "point", "x": 100, "y": 100},
            {"op": "delete", "seg_id": 0},
            {"op": "point", "x": 500, "y": 500},
        ]
        schedule = batch._schedule([parse_request(r) for r in requests], "morton")
        # Mutations stay at their arrival positions; reads never cross one.
        assert schedule[1] == 1 and schedule[3] == 3
        assert sorted(schedule) == list(range(5))

    def test_durable_mutations_invalidate(self, tmp_path):
        from repro.wal import DurableStore

        index = build_index("R*", lattice_map(n=6))
        store = DurableStore.create(tmp_path / "store", index)
        engine = QueryEngine(index, store=store)
        engine.execute(QuerySpec.window(Rect(0, 0, 400, 400)))
        assert len(engine.cache) == 1
        seg_id = engine.insert_segment(Segment(15.0, 15.0, 95.0, 90.0))
        assert len(engine.cache) == 0
        assert seg_id in engine.execute(QuerySpec.window(Rect(0, 0, 400, 400)))
        engine.delete(seg_id)
        assert len(engine.cache) == 0
        assert seg_id not in engine.execute(QuerySpec.window(Rect(0, 0, 400, 400)))
        assert engine.stats()["last_lsn"] == 2
        store.close()


@pytest.mark.parametrize("kind", ["R*", "R+", "PMR"])
def test_a_read_overtaken_by_a_mutation_caches_nothing_stale(kind):
    """A read traverses, a mutation is applied *and acknowledged*, and only
    then does the read get to store its answer: the cache must not serve
    that pre-mutation answer to the next identical query.

    The reader is held at ``cache.store`` until the insert has returned.
    Where the store is part of the latched section the insert cannot
    return first, so the reader's wait is bounded: it runs out, the store
    goes ahead of the insert, and the insert's invalidation removes it.
    Either way every wait below ends by itself.
    """
    engine = QueryEngine(build_index(kind, lattice_map(n=6)))
    spec = QuerySpec.window(Rect(0, 0, 300, 300))
    uncached = QuerySpec.window(Rect(0, 0, 300, 300))
    uncached.use_cache = False
    before = engine.execute(uncached)
    real_store = engine.cache.store
    traversed, acknowledged = threading.Event(), threading.Event()

    def held_store(key, value):
        traversed.set()
        acknowledged.wait(timeout=0.2)
        real_store(key, value)

    engine.cache.store = held_store
    reader = threading.Thread(target=engine.execute, args=(spec,))
    reader.start()
    try:
        assert traversed.wait(timeout=10.0)
        seg_id = engine.insert_segment(Segment(10.0, 10.0, 90.0, 95.0))
    finally:
        acknowledged.set()
        reader.join(timeout=10.0)
        engine.cache.store = real_store
    assert not reader.is_alive()
    assert engine.cache.invalidations == 1
    hits = engine.cache.hits
    assert sorted(engine.execute(spec)) == sorted(before + [seg_id])
    assert engine.cache.hits == hits, "answered from a pre-mutation entry"
    assert sorted(engine.execute(spec)) == sorted(before + [seg_id])
    assert engine.cache.hits == hits + 1
    assert engine.counters_consistent()


class TestResultCacheUnit:
    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == (True, 1)  # refresh a
        cache.store("c", 3)  # evicts b
        assert cache.lookup("b") == (False, None)
        assert cache.lookup("a") == (True, 1)
        assert cache.lookup("c") == (True, 3)
        assert cache.evictions == 1

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(capacity=0)
        cache.store("a", 1)
        assert cache.lookup("a") == (False, None)

    def test_hit_rate(self):
        cache = ResultCache()
        cache.store("k", "v")
        cache.lookup("k")
        cache.lookup("nope")
        assert cache.hit_rate == 0.5


class TestLatch:
    def test_counts_contention(self):
        latch = Latch("t")
        held = threading.Event()
        release = threading.Event()

        def holder():
            with latch:
                held.set()
                release.wait(timeout=30)

        t = threading.Thread(target=holder)
        t.start()
        held.wait(timeout=30)
        waiter_done = threading.Event()

        def waiter():
            with latch:
                waiter_done.set()

        w = threading.Thread(target=waiter)
        w.start()
        release.set()
        t.join()
        w.join()
        assert waiter_done.is_set()
        assert latch.acquisitions == 2
        assert latch.contended >= 1

    def test_reentrant(self):
        latch = Latch("t")
        with latch:
            with latch:
                pass
        assert latch.acquisitions == 1

    def test_release_by_non_holder_rejected(self):
        latch = Latch("t")
        with pytest.raises(RuntimeError):
            latch.release()

    def test_latch_and_wal_tallies_reach_the_scrape(self, tmp_path):
        """The live export shows what the bench record's
        ``storage.latch_contended_ratio`` and ``wal.fsyncs_per_mutation``
        are computed from, mirrored at export time."""
        from repro.obs import MetricsRegistry, parse_prom_text
        from repro.wal import DurableStore

        index = build_index("R*", lattice_map(n=6))
        store = DurableStore.create(tmp_path / "store", index)
        engine = QueryEngine(index, store=store, registry=MetricsRegistry())
        try:
            engine.insert_segment(Segment(15.0, 15.0, 95.0, 90.0))
            engine.execute(QuerySpec.point(Point(100, 100)))
            # Read first: the prom export recomputes the health gauges
            # under the latch once its mirrors are synced.
            latch, wal = engine.latch.stats(), store.stats()
            families = parse_prom_text(engine.export_metrics("prom"))
        finally:
            store.close()
        scraped = {
            name: families[name]["samples"][0][2]
            for name in families
            if name.startswith(("repro_latch_", "repro_wal_"))
        }
        assert all(families[name]["type"] == "counter" for name in scraped)
        assert wal["log_appends"] == wal["fsyncs"] == 1
        assert scraped == {
            "repro_latch_acquisitions_total": latch["acquisitions"],
            "repro_latch_contended_total": latch["contended"],
            "repro_latch_wait_seconds_total": latch["wait_seconds"],
            "repro_wal_appends_total": 1,
            "repro_wal_fsyncs_total": 1,
        }
        plain = QueryEngine(build_index("R*", lattice_map(n=6)), registry=MetricsRegistry())
        assert "repro_wal_appends_total" not in plain.export_metrics("prom")

    def test_stats_endpoint(self, engine):
        engine.execute(QuerySpec.point(Point(100, 100)))
        stats = engine.stats()
        assert stats["counters_consistent"] is True
        assert stats["index"]["kind"] == "R*"
        assert stats["latch"]["acquisitions"] >= 1
        assert stats["latch"]["wait_seconds"] == 0.0  # one thread: never waited
        assert stats["pool"]["capacity"] == 16


# ----------------------------------------------------------------------
# What an insert stores
# ----------------------------------------------------------------------
PAPER_TRIO = ["R*", "R+", "PMR"]
OUTSIDE = b'{"op":"insert","x1":20000,"y1":20000,"x2":20010,"y2":20010}'
#: Finite, so the wire accepts it, and too large for a float32.
HUGE = b'{"op":"insert","x1":1,"y1":1,"x2":1e300,"y2":2}'
INSIDE = b'{"op":"insert","x1":100.1,"y1":100.1,"x2":101.3,"y2":101.7}'


@pytest.fixture(scope="module")
def cecil():
    return generate_county("cecil", scale=0.01)


def _refused(envelope):
    assert envelope["ok"] is False, envelope
    assert envelope["error"]["code"] == "bad_args", envelope
    assert "outside" in envelope["error"]["message"]


@pytest.mark.parametrize("kind", PAPER_TRIO)
def test_an_insert_outside_the_world_is_refused(kind, cecil):
    """It used to be acked and appended; R+ and PMR then indexed it
    nowhere -- no query found it and ``check`` flagged the index."""
    engine = QueryEngine(build_structure(kind, cecil).index)
    protocol = Protocol(engine)
    n = len(engine.ctx.segments)
    for line in (OUTSIDE, HUGE):
        _refused(protocol.respond_line(line))
    assert len(engine.ctx.segments) == n
    assert check_index(engine.index) == []
    assert protocol.respond_line(INSIDE) == {"ok": True, "result": n}


@pytest.mark.parametrize("kind", PAPER_TRIO)
def test_a_durable_store_refuses_before_logging(kind, cecil, tmp_path):
    """``x2: 1e300`` used to be appended to the table, then fail the log
    append as ``internal``: the next insert was acked one id too far on,
    and the store no longer opened."""
    store = DurableStore.create(tmp_path / "store", build_structure(kind, cecil).index)
    engine = QueryEngine(store.index, store=store)
    protocol = Protocol(engine)
    n, lsn = len(engine.ctx.segments), store.last_lsn
    for line in (OUTSIDE, HUGE):
        _refused(protocol.respond_line(line))
    assert (len(engine.ctx.segments), store.last_lsn) == (n, lsn)
    assert protocol.respond_line(INSIDE) == {"ok": True, "result": n}
    assert check_index(engine.index) == []
    store.close()
    reopened = DurableStore.open(tmp_path / "store")
    try:
        assert len(reopened.index.ctx.segments) == n + 1
        assert check_index(reopened.index) == []
    finally:
        reopened.close()


def test_every_shard_refuses_an_insert_outside_the_world(cecil, tmp_path):
    """Refused on every shard, the router relays the refusal: nothing was
    applied anywhere, so no ``applied`` partial asks for a repair."""
    init_shard_set(tmp_path, "R*", map_data=cecil, n_shards=2, page_size=2048)
    with LocalShardSet(tmp_path) as shards:
        core = RouterCore(tmp_path)
        try:
            for line in (OUTSIDE, HUGE):
                envelope = core.protocol.respond_line(line)
                _refused(envelope)
                assert "partial" not in envelope
            n = len(cecil.segments)
            assert core.protocol.respond_line(INSIDE) == {"ok": True, "result": n}
        finally:
            core.close_clients()
        assert {len(s.engine.ctx.segments) for s in shards.servers.values()} == {n + 1}


@pytest.mark.parametrize("kind", PAPER_TRIO)
def test_a_reopened_store_answers_as_the_live_one(kind, cecil, tmp_path):
    """The live table kept the client's float64 endpoints while the log
    and the pages keep float32: a point on the inserted endpoint found
    it until the restart, and nothing after."""
    probes = [
        b'{"op":"point","x":100.1,"y":100.1,"use_cache":false}',
        b'{"op":"point","x":101.3,"y":101.7,"use_cache":false}',
        b'{"op":"window","x1":100.1,"y1":100.1,"x2":100.1,"y2":100.1,"use_cache":false}',
        b'{"op":"nearest","x":100.1,"y":100.1,"k":1,"use_cache":false}',
    ]
    store = DurableStore.create(tmp_path / "store", build_structure(kind, cecil).index)
    protocol = Protocol(QueryEngine(store.index, store=store))
    assert protocol.respond_line(INSIDE)["ok"]
    live = [protocol.respond_line(probe) for probe in probes]
    store.close()
    reopened = DurableStore.open(tmp_path / "store")
    try:
        protocol = Protocol(QueryEngine(reopened.index, store=reopened))
        assert [protocol.respond_line(probe) for probe in probes] == live
    finally:
        reopened.close()
