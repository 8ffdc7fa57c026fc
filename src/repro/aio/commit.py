"""Cross-connection group commit for the async server.

The WAL already batches fsyncs *within* one caller (``group_commit=N``
defers the fsync until N records are pending), but the threaded server
cannot batch *across* connections: each handler thread calls
``store.commit()`` inline and blocks until its own fsync. On an event
loop the shape inverts naturally -- while one fsync is in flight, every
mutation that lands meanwhile just parks a future here, and the next
fsync covers them all. One disk flush per *batch*, not per request.
Each batch calls ``wal.sync()``, so ``N`` is not consulted here: every
ack follows an fsync that covers it, whatever the store's ``N``.

Commit-before-ack is preserved per request: a waiter's future resolves
only once an fsync has covered its LSN (or fails with the exception the
fsync raised), and the response frame is not written until that future
resolves. The engine side of the contract is
:meth:`repro.service.engine.QueryEngine.execute_deferred`, which
suppresses the inline commit barrier and reports the mutation's LSN.

All state here is touched only from the event loop thread; the fsync
itself runs in an executor (it blocks), and the loop awaits it. There
is deliberately no timer: the "batch window" is exactly the duration of
the in-flight fsync, so an idle server adds zero latency (first
mutation fsyncs immediately) and a saturated one converges to the
disk's flush rate.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple


class GroupCommitter:
    """Batch WAL fsyncs across connections; resolve waiters by LSN."""

    def __init__(self, store, loop, executor) -> None:
        self.store = store
        self._loop = loop
        self._executor = executor
        self._waiters: List[Tuple[int, asyncio.Future]] = []
        self._flush_task: Optional[asyncio.Task] = None
        #: Highest LSN known to be covered by an fsync.
        self.synced_lsn = store.last_lsn
        #: Fsync batches run / mutations acked through them / largest batch.
        self.batches = 0
        self.committed = 0
        self.max_batch = 0

    async def wait_durable(self, lsn: int) -> None:
        """Return once an fsync covers ``lsn`` (joining the next batch)."""
        if lsn <= self.synced_lsn:
            return
        future = self._loop.create_future()
        self._waiters.append((lsn, future))
        if self._flush_task is None:
            self._flush_task = self._loop.create_task(self._flush_loop())
        await future

    async def _flush_loop(self) -> None:
        try:
            while self._waiters:
                batch = self._waiters
                self._waiters = []
                # Everything logged so far is covered by this fsync --
                # including mutations that raced in after their barrier
                # but before this snapshot of last_lsn.
                target = self.store.last_lsn
                try:
                    await self._loop.run_in_executor(
                        self._executor, self.store.wal.sync
                    )
                except Exception as exc:
                    # No fsync, no ack: every waiter of this batch gets
                    # the failure (its ack becomes an error envelope),
                    # and the loop goes on to serve the next batch.
                    for _lsn, future in batch:
                        if not future.done():
                            future.set_exception(exc)
                    continue
                self.synced_lsn = max(self.synced_lsn, target)
                self.batches += 1
                self.committed += len(batch)
                self.max_batch = max(self.max_batch, len(batch))
                for _lsn, future in batch:
                    if not future.done():
                        future.set_result(None)
        finally:
            # No await between the loop's empty check and this clear, so
            # a new waiter always sees either a live task or None.
            self._flush_task = None

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "committed": self.committed,
            "max_batch": self.max_batch,
            "synced_lsn": self.synced_lsn,
        }
