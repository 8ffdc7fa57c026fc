"""Batch execution: Morton scheduling beats arrival order on pool misses."""

import random

import pytest

from repro.core.pmr.locational import morton_key
from repro.service import BatchExecutor, QueryEngine, parse_batch_item
from repro.service.batch import _centroid

from tests.conftest import build_index, lattice_map


@pytest.fixture()
def engine():
    # A larger lattice than the pool can hold, so scheduling matters.
    return QueryEngine(build_index("R*", lattice_map(n=16, pitch=60)))


def shuffled_point_requests(n=200, seed=3):
    rng = random.Random(seed)
    requests = [
        {"op": "point", "x": (rng.randrange(1, 17)) * 60, "y": (rng.randrange(1, 17)) * 60}
        for _ in range(n)
    ]
    rng.shuffle(requests)
    return requests


class TestMortonScheduling:
    def test_results_in_arrival_order(self, engine):
        requests = shuffled_point_requests(40)
        executor = BatchExecutor(engine)
        arrival = executor.execute(requests, order="arrival", use_cache=False)
        engine.cold_start()
        morton = executor.execute(requests, order="morton", use_cache=False)
        assert morton.results == arrival.results

    def test_morton_reduces_disk_accesses(self, engine):
        requests = shuffled_point_requests(200)
        comparison = BatchExecutor(engine).compare_orders(requests)
        assert (
            comparison["morton"].disk_accesses
            < comparison["arrival"].disk_accesses
        )

    def test_mixed_ops_supported(self, engine):
        requests = [
            {"op": "point", "x": 120, "y": 120},
            {"op": "window", "x1": 0, "y1": 0, "x2": 300, "y2": 300},
            {"op": "nearest", "x": 500, "y": 500, "k": 2},
        ]
        result = BatchExecutor(engine).execute(requests)
        assert len(result.results) == 3
        assert isinstance(result.results[1], list)
        assert len(result.results[2]) == 2

    def test_unknown_op_rejected(self, engine):
        with pytest.raises(ValueError, match="op"):
            BatchExecutor(engine).execute([{"op": "polygonz", "x": 1, "y": 1}])

    def test_bad_order_rejected(self, engine):
        with pytest.raises(ValueError, match="order"):
            BatchExecutor(engine).execute([], order="hilbert")

    def test_batch_charges_session(self, engine):
        session = engine.session("batcher")
        result = BatchExecutor(engine).execute(
            shuffled_point_requests(30), session=session, use_cache=False
        )
        assert result.metrics.disk_accesses + result.metrics.buffer_hits > 0
        assert session.counters.snapshot() == result.metrics
        assert engine.counters_consistent()


class TestMortonKey:
    def test_orders_by_locality(self):
        # The four quadrant corners of a 2x2 world sort SW, SE, NW, NE.
        keys = [morton_key(x, y) for x, y in [(0, 0), (1, 0), (0, 1), (1, 1)]]
        assert keys == sorted(keys)

    def test_clamps_out_of_world(self):
        assert morton_key(-5, -5) == morton_key(0, 0)
        assert morton_key(1e9, 1e9) == morton_key(16383, 16383)

    def test_centroids(self):
        assert _centroid(parse_batch_item({"op": "point", "x": 3, "y": 4})) == (3.0, 4.0)
        assert _centroid(
            parse_batch_item({"op": "window", "x1": 0, "y1": 0, "x2": 10, "y2": 20})
        ) == (5.0, 10.0)
        assert _centroid(parse_batch_item({"op": "nearest", "x": 1, "y": 2})) == (1.0, 2.0)
        with pytest.raises(ValueError):  # no centroid: it cannot be in a batch
            parse_batch_item({"op": "stats"})


class TestBatchAttribution:
    def test_another_request_of_the_session_is_not_the_batchs(self, engine, monkeypatch):
        """On ``serve`` two v2 requests of one connection can run on
        two executor threads at once. One landing between two members of
        a batch is charged to the session, never reported as the batch's."""
        caller = engine.session("conn")
        execute = engine.execute
        interleaved = []

        def execute_then_interleave(request, session=None):
            result = execute(request, session=session)
            if not interleaved:
                before = engine.totals.snapshot()
                whole_map = {"op": "window", "x1": 0, "y1": 0, "x2": 2000, "y2": 2000}
                execute(parse_batch_item(whole_map), session=caller)
                interleaved.append(engine.totals.since(before))
            return result

        monkeypatch.setattr(engine, "execute", execute_then_interleave)
        engine.cold_start()
        before = engine.totals.snapshot()
        result = engine.batch.execute(
            shuffled_point_requests(5), session=caller, use_cache=False
        )
        everything = engine.totals.since(before)
        (window,) = interleaved
        assert window.disk_accesses > 0
        assert result.disk_accesses == everything.disk_accesses - window.disk_accesses
        # The private session is folded into the caller's: nothing lost.
        assert caller.counters.since(before).disk_accesses == everything.disk_accesses
        assert caller.queries == 5 + 1
        assert [s.name for s in engine.sessions()] == ["conn"]
        assert engine.counters_consistent()
