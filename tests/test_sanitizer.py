"""The runtime lock-order sanitizer and deterministic thread shutdown.

The decisive property: a lock-order inversion is reported from a
*staged* schedule in which the two threads never actually collide --
thread one takes A then B and exits, thread two then takes B then A.
No deadlock occurs, yet the ordering graph has a cycle, and that is
what crash-injection and shard-smoke runs need to surface.
"""

from __future__ import annotations

import threading

import pytest

from repro.sanitize import (
    SANITIZER,
    LockOrderSanitizer,
    TrackedCondition,
    TrackedLock,
    enabled_from_env,
)
from repro.storage.latch import Latch


@pytest.fixture()
def sanitizer():
    """The process-wide sanitizer, enabled and isolated for one test."""
    SANITIZER.reset()
    SANITIZER.enable()
    yield SANITIZER
    SANITIZER.disable()
    SANITIZER.reset()


# ----------------------------------------------------------------------
# The core property: inversions are caught without a deadlock
# ----------------------------------------------------------------------
class TestPotentialDeadlock:
    def test_staged_ab_ba_inversion_is_reported(self, sanitizer):
        a = TrackedLock("A")
        b = TrackedLock("B")

        def ab():
            with a:
                with b:
                    pass

        def ba():
            with b:
                with a:
                    pass

        # Run strictly sequentially: no two threads ever contend, so
        # this can never deadlock -- but the schedules are inverted.
        t1 = threading.Thread(target=ab)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=ba)
        t2.start()
        t2.join()

        report = sanitizer.report()
        assert len(report["potential_deadlocks"]) == 1
        cycle = report["potential_deadlocks"][0]
        assert set(cycle["cycle"]) == {"A", "B"}
        # Both edges carry provenance (thread name + file:line).
        assert all(e["site"] != "?" for e in cycle["edges"])
        assert "POTENTIAL DEADLOCK" in sanitizer.format_report()

    def test_consistent_order_is_silent(self, sanitizer):
        a = TrackedLock("A")
        b = TrackedLock("B")
        for _ in range(3):
            with a:
                with b:
                    pass
        report = sanitizer.report()
        assert report["potential_deadlocks"] == []
        assert report["edges"] == 1  # A -> B, deduplicated

    def test_three_lock_cycle(self, sanitizer):
        a, b, c = TrackedLock("A"), TrackedLock("B"), TrackedLock("C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass  # closes A -> B -> C -> A
        report = sanitizer.report()
        assert len(report["potential_deadlocks"]) == 1
        assert set(report["potential_deadlocks"][0]["cycle"]) == {"A", "B", "C"}

    def test_duplicate_cycles_reported_once(self, sanitizer):
        a = TrackedLock("A")
        b = TrackedLock("B")
        for _ in range(5):
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert len(sanitizer.report()["potential_deadlocks"]) == 1


# ----------------------------------------------------------------------
# Blocking-under-lock accounting
# ----------------------------------------------------------------------
class TestBlocking:
    def test_blocking_tallied_only_under_lock(self, sanitizer):
        lock = TrackedLock("io")
        sanitizer.note_blocking("fsync", "nowhere")  # no lock held: ignored
        with lock:
            sanitizer.note_blocking("fsync", "somewhere")
            sanitizer.note_blocking("fsync", "somewhere")
        held = sanitizer.report()["held_across_blocking"]
        assert held == {"fsync@somewhere holding io": 2}

    def test_wal_group_commit_is_counted(self, sanitizer, tmp_path):
        from repro.geometry import Segment
        from repro.wal.log import WriteAheadLog

        wal = WriteAheadLog.create(str(tmp_path / "repro.wal"))
        wal.log_insert(1, Segment(0, 0, 10, 10))
        wal.commit()
        # The log's own lock is never held across the fsync ...
        assert sanitizer.report()["held_across_blocking"] == {}
        # ... but a lock the *caller* commits under still is reported.
        with TrackedLock("caller"):
            wal.log_insert(2, Segment(0, 0, 10, 10))
            wal.commit()
        wal.close()
        held = sanitizer.report()["held_across_blocking"]
        assert list(held) == ["fsync@wal.log:_sync holding caller"]


# ----------------------------------------------------------------------
# Disabled = dormant
# ----------------------------------------------------------------------
class TestDisabled:
    def test_no_tracking_when_disabled(self):
        san = LockOrderSanitizer()
        lock = TrackedLock("x")
        with lock:
            pass
        assert san.report()["acquisitions"] == 0
        assert SANITIZER.report()["acquisitions"] == 0 or SANITIZER.enabled

    def test_global_sanitizer_disabled_by_default(self):
        # The suite must not run instrumented unless a test asked for it.
        assert not SANITIZER.enabled or enabled_from_env()

    def test_env_parsing(self):
        assert enabled_from_env({"REPRO_SANITIZE": "1"})
        assert enabled_from_env({"REPRO_SANITIZE": "true"})
        assert enabled_from_env({"REPRO_SANITIZE": " ON "})
        assert not enabled_from_env({"REPRO_SANITIZE": "0"})
        assert not enabled_from_env({"REPRO_SANITIZE": ""})
        assert not enabled_from_env({})


# ----------------------------------------------------------------------
# Primitive semantics
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_tracked_lock_is_a_real_lock(self, sanitizer):
        lock = TrackedLock("x")
        assert lock.acquire()
        assert lock.locked()
        assert not lock.acquire(blocking=False)  # non-reentrant
        lock.release()
        assert not lock.locked()

    def test_reentrant_tracked_lock(self, sanitizer):
        lock = TrackedLock("r", reentrant=True)
        with lock:
            with lock:
                pass
        # A reentrant re-acquire is not an ordering edge (no self-edge).
        assert sanitizer.report()["edges"] == 0
        assert sanitizer.report()["potential_deadlocks"] == []

    def test_release_of_unknown_name_is_tolerated(self, sanitizer):
        sanitizer.note_release("never-acquired")  # must not raise

    def test_tracked_condition_orders_like_a_lock(self, sanitizer):
        gate = TrackedCondition("gate")
        inner = TrackedLock("inner")
        with gate:
            gate.notify_all()
            with inner:
                pass
        report = sanitizer.report()
        assert report["edges"] == 1
        assert report["potential_deadlocks"] == []

    def test_latch_reports_to_sanitizer(self, sanitizer):
        latch = Latch("pool")
        cache = TrackedLock("cache")
        with latch:
            with latch:  # reentrant: no extra acquisition edge
                with cache:
                    pass
        report = sanitizer.report()
        assert report["acquisitions"] == 2  # latch once, cache once
        assert report["edges"] == 1  # latch:pool -> cache

    def test_held_locks_is_per_thread(self, sanitizer):
        lock = TrackedLock("mine")
        seen = {}

        def other():
            seen["other"] = SANITIZER.held_locks()

        with lock:
            t = threading.Thread(target=other)
            t.start()
            t.join()
            assert SANITIZER.held_locks() == ("mine",)
        assert seen["other"] == ()


# ----------------------------------------------------------------------
# Deterministic shutdown (the satellite bugfix)
# ----------------------------------------------------------------------
class TestShutdown:
    def test_map_server_stop_joins_accept_thread(self):
        from repro.service import MapServer, QueryEngine

        from tests.conftest import build_index, lattice_map

        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        server = MapServer(engine)
        thread = server.start_background()
        assert thread.is_alive()
        server.stop()
        assert not thread.is_alive()
        assert server._serve_thread is None

    def test_a_stopped_shard_set_leaves_nothing_behind(self, tmp_path):
        """Stopping the router and every worker joins their accept, loop
        and scatter threads and closes every worker's port, connections
        the router pooled included -- a stopped worker looks like a dead
        one."""
        import socket

        from repro.data import generate_county
        from repro.service import send_request
        from repro.shard import LocalShardSet, ShardRouter, init_shard_set

        root = str(tmp_path)
        init_shard_set(
            root, "R*", map_data=generate_county("cecil", scale=0.01), n_shards=2
        )
        before = set(threading.enumerate())
        with LocalShardSet(root) as shards:
            router = ShardRouter(root)
            router.start_background()
            try:
                read = send_request(
                    router.address,
                    {"op": "window", "x1": 0, "y1": 0, "x2": 1e9, "y2": 1e9},
                )
                insert = send_request(
                    router.address,
                    {"op": "insert", "x1": 10, "y1": 10, "x2": 20, "y2": 20},
                )
            finally:
                router.stop()
            addresses = [server.address for server in shards.servers.values()]
        assert read["ok"] and read["result"], read
        assert insert["ok"], insert
        lingering = [
            t.name
            for t in set(threading.enumerate()) - before
            if t.is_alive()
            and t.name.startswith(("map-server", "aio-", "shard-scatter"))
        ]
        assert lingering == []
        for address in [*addresses, router.address]:
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5).close()

    def test_a_driven_server_leaves_no_thread_behind(self):
        from repro.aio import AsyncMapServer
        from repro.service import MapServer, QueryEngine, send_request
        from tests.conftest import build_index, lattice_map

        for front in (MapServer, AsyncMapServer):
            server = front(QueryEngine(build_index("R*", lattice_map(n=6))))
            server.start_background()
            try:
                answers = [
                    send_request(server.address, {"op": "point", "x": x, "y": x})
                    for x in range(100, 900, 100)
                ]
            finally:
                server.stop()
            assert all(answer["ok"] for answer in answers)
            # Whichever server was driven -- accept thread, loop thread,
            # engine and fsync executors -- is joined by stop(): nothing
            # outlives it.
            lingering = [
                t.name
                for t in threading.enumerate()
                if t.name.startswith(("map-server", "aio-", "asyncio_"))
            ]
            assert lingering == []
