"""Latch hardening: no exception path may leak the underlying lock.

Two regressions guarded here:

* an exception out of the contended blocking acquire (e.g. an interrupt
  between the non-blocking probe and the blocking wait) must leave the
  bookkeeping untouched and the latch fully usable;
* an exception out of the statistics update *after* the lock was
  obtained must back the acquisition out completely — holder cleared,
  depth zero, underlying lock released.
"""

from __future__ import annotations

import threading

import pytest

from repro.storage.latch import Latch


class FlakyLock:
    """RLock stand-in: always 'contended', blocking acquire can be armed
    to raise (simulating an interrupt landing in the slow path)."""

    def __init__(self) -> None:
        self._inner = threading.RLock()
        self.fail_next_blocking = False

    def acquire(self, blocking: bool = True) -> bool:
        if not blocking:
            return False  # force the contended slow path
        if self.fail_next_blocking:
            self.fail_next_blocking = False
            raise KeyboardInterrupt
        return self._inner.acquire()

    def release(self) -> None:
        self._inner.release()


class ExplodingStatsLatch(Latch):
    """Latch whose statistics update fails on demand."""

    def __init__(self) -> None:
        super().__init__("exploding")
        self.explode = False

    def _record_acquire(self, contended: bool) -> None:
        if self.explode:
            raise RuntimeError("stats bookkeeping failure")
        super()._record_acquire(contended)


def _acquirable_from_other_thread(lock) -> bool:
    """Can a second thread take ``lock``? (Same-thread probes lie for RLock.)"""
    result = []

    def probe() -> None:
        got = lock.acquire(blocking=False)
        result.append(got)
        if got:
            lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return result[0]


def test_interrupt_in_contended_acquire_leaves_latch_usable():
    latch = Latch("flaky")
    latch._lock = FlakyLock()
    latch._lock.fail_next_blocking = True

    with pytest.raises(KeyboardInterrupt):
        latch.acquire()

    assert latch._holder is None
    assert latch._depth == 0
    assert latch.acquisitions == 0
    assert latch.contended == 0

    # the latch recovers: the same thread can take and release it
    with latch:
        assert latch._depth == 1
    assert latch.acquisitions == 1
    assert latch.contended == 1  # FlakyLock always reports contention
    assert _acquirable_from_other_thread(latch._lock._inner)


def test_contended_acquire_is_timed_and_shows_in_a_sampled_trace():
    """The contended branch alone pays for the clock: it adds to
    ``wait_seconds`` and keeps that wait as ``holder_wait`` while held;
    the engine sets it, inside a sampled trace, as ``latch_wait_us`` on
    the span that took the latch. The latch itself records nothing into
    any trace."""
    from repro.core.queries import QuerySpec
    from repro.geometry import Point
    from repro.obs import MetricsRegistry
    from repro.obs.trace import TRACER
    from repro.service import QueryEngine
    from tests.conftest import build_index, lattice_map

    latch = Latch("timed")
    with latch:  # uncontended: nothing timed
        assert latch.holder_wait == 0.0
    assert latch.stats()["wait_seconds"] == 0.0 and latch.contended == 0
    latch._lock = FlakyLock()
    with latch:
        assert latch.holder_wait == latch.wait_seconds > 0.0
    assert latch.contended == 1
    assert latch.stats()["wait_seconds"] == latch.wait_seconds

    engine = QueryEngine(
        build_index("R*", lattice_map(n=6)), registry=MetricsRegistry()
    )
    engine.latch._lock = FlakyLock()  # every acquisition waits
    TRACER.clear()
    TRACER.arm(1.0)
    try:
        before = engine.latch.wait_seconds
        engine.execute(QuerySpec.point(Point(100, 100)))
        added = engine.latch.wait_seconds - before
        (trace,) = TRACER.recent()
    finally:
        TRACER.disarm()
        TRACER.clear()
    (traverse,) = trace["spans"]
    assert added > 0.0
    assert abs(traverse["attrs"]["latch_wait_us"] - added * 1e6) <= 0.1
    assert "latch_wait_us" not in trace["attrs"]


def test_stats_failure_after_lock_obtained_backs_out_completely():
    latch = ExplodingStatsLatch()
    latch.explode = True

    with pytest.raises(RuntimeError):
        latch.acquire()

    assert latch._holder is None
    assert latch._depth == 0
    assert latch.acquisitions == 0
    # the underlying lock must NOT still be held by the failed acquire
    assert _acquirable_from_other_thread(latch._lock)

    latch.explode = False
    with latch:
        pass
    assert latch.acquisitions == 1
    assert _acquirable_from_other_thread(latch._lock)


def test_exception_inside_with_block_releases():
    latch = Latch()
    with pytest.raises(ValueError):
        with latch:
            raise ValueError("boom")
    assert latch._holder is None
    assert _acquirable_from_other_thread(latch._lock)


def test_reentrant_acquire_counts_once():
    latch = Latch()
    with latch:
        with latch:
            assert latch._depth == 2
        assert latch._depth == 1
    assert latch.acquisitions == 1
    assert latch._holder is None


def test_release_by_non_holder_raises():
    latch = Latch("guarded")
    with pytest.raises(RuntimeError):
        latch.release()

    errors = []
    latch.acquire()

    def foreign_release() -> None:
        try:
            latch.release()
        except RuntimeError as exc:
            errors.append(exc)

    thread = threading.Thread(target=foreign_release)
    thread.start()
    thread.join()
    latch.release()
    assert len(errors) == 1


def test_contended_acquisition_is_counted():
    latch = Latch("contended")
    started = threading.Event()
    release = threading.Event()

    def holder() -> None:
        with latch:
            started.set()
            release.wait(timeout=5)

    thread = threading.Thread(target=holder)
    thread.start()
    started.wait(timeout=5)

    waiter_done = threading.Event()

    def waiter() -> None:
        with latch:
            pass
        waiter_done.set()

    w = threading.Thread(target=waiter)
    w.start()
    release.set()
    thread.join()
    w.join()
    assert waiter_done.is_set()
    assert latch.acquisitions == 2
    assert latch.contended >= 0  # timing-dependent; never negative
