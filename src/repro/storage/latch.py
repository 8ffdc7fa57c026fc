"""A counted latch for shared storage structures.

The simulated storage stack is single-threaded by construction; the
service layer (:mod:`repro.service`) shares one buffer pool between many
worker threads and therefore needs mutual exclusion around every
traversal. A :class:`Latch` is a reentrant lock that additionally counts
acquisitions and contended acquisitions, and times the contended ones,
so a server can report how hot the pool latch is under load.
"""

from __future__ import annotations

import threading
import time

from repro.sanitize import SANITIZER


class Latch:
    """A reentrant lock with acquisition statistics.

    ``acquisitions`` counts every outermost acquire; ``contended`` counts
    the subset that had to wait because another thread held the latch,
    and ``wait_seconds`` sums how long those waited. All three are
    maintained under the latch itself, so they are exact. ``holder_wait``
    is what the current holder's acquisition added to ``wait_seconds``
    (0.0 uncontended): the engine reads it under the latch to say, on a
    sampled trace's span, whether the request waited for another holder.
    """

    def __init__(self, name: str = "latch") -> None:
        self.name = name
        self._lock = threading.RLock()
        self._holder: int | None = None
        self._depth = 0
        self.acquisitions = 0
        self.contended = 0
        self.wait_seconds = 0.0
        self.holder_wait = 0.0

    def acquire(self) -> None:
        me = threading.get_ident()
        if self._holder == me:  # reentrant: no stats, no blocking
            self._depth += 1
            return
        if self._lock.acquire(blocking=False):
            waited = None
        else:
            # The contended slow path can raise (e.g. an interrupt lands
            # between the non-blocking probe and the blocking acquire).
            # Nothing was acquired in that case, so bookkeeping must stay
            # untouched -- the latch remains fully usable afterwards.
            started = time.perf_counter()
            self._lock.acquire()
            waited = time.perf_counter() - started
        try:
            self._holder = me
            self._depth = 1
            self._record_acquire(waited)
            if SANITIZER.enabled:
                SANITIZER.note_acquire(f"latch:{self.name}")
        except BaseException:
            # Bookkeeping failed after the lock was obtained: back out
            # completely rather than leave a held lock with no holder.
            self._holder = None
            self._depth = 0
            self._lock.release()
            raise

    def _record_acquire(self, waited: float | None) -> None:
        """Update acquisition statistics; ``waited`` is how long a
        contended acquire blocked, None for an uncontended one (separate
        so tests can verify that a failure here cannot leak the
        underlying lock)."""
        self.acquisitions += 1
        self.holder_wait = waited or 0.0
        if waited is not None:
            self.contended += 1
            self.wait_seconds += waited

    def release(self) -> None:
        if self._holder != threading.get_ident():
            raise RuntimeError(f"latch {self.name!r} released by non-holder")
        self._depth -= 1
        if self._depth == 0:
            if SANITIZER.enabled:
                SANITIZER.note_release(f"latch:{self.name}")
            self._holder = None
            self._lock.release()

    def __enter__(self) -> "Latch":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def stats(self) -> dict:
        return {
            "name": self.name,
            "acquisitions": self.acquisitions,
            "contended": self.contended,
            "wait_seconds": self.wait_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Latch {self.name!r} acquisitions={self.acquisitions} "
            f"contended={self.contended}>"
        )
