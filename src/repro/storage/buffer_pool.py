"""Fixed-capacity page cache with least-recently-used replacement.

All page traffic from the spatial indexes, the B-tree, and the segment
table flows through a pool; a request for a non-resident page is the
paper's "disk access".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from repro.storage.counters import MetricsCounters
from repro.storage.disk import DiskManager


@dataclass
class _Frame:
    payload: Any
    dirty: bool


class BufferPool:
    """A pool of ``capacity`` page frames in front of a :class:`DiskManager`.

    The paper's configuration is 16 frames of 1 KiB pages with LRU
    replacement (Section 4); page size and pool size are swept in the
    Figure 6 reproduction. The recency order is the order of the frame
    table itself: a hit moves its frame to the end, an admit evicts from
    the front.
    """

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = 16,
        counters: Optional[MetricsCounters] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self.counters = counters if counters is not None else MetricsCounters()
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def get(self, page_id: int) -> Any:
        """Fetch a page's payload, faulting it in from disk if needed."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.counters.buffer_hits += 1
            self._frames.move_to_end(page_id)
            return frame.payload

        self.counters.disk_reads += 1
        payload = self.disk.read(page_id)
        self._admit(page_id, payload, dirty=False)
        return payload

    def create(self, payload: Any) -> int:
        """Allocate a new page born dirty in the pool (no read charged)."""
        page_id = self.disk.allocate(payload)
        self._admit(page_id, payload, dirty=True)
        return page_id

    def mark_dirty(self, page_id: int) -> None:
        """Record that a resident page's payload was mutated.

        The page is faulted in first if it is not resident, since mutating
        a page requires reading it.
        """
        frame = self._frames.get(page_id)
        if frame is None:
            self.get(page_id)
            frame = self._frames[page_id]
        frame.dirty = True

    def drop(self, page_id: int) -> None:
        """Discard a page from the pool without write-back (page freed)."""
        self._frames.pop(page_id, None)

    def flush(self) -> None:
        """Write back every dirty page; residency is unchanged."""
        for page_id, frame in self._frames.items():
            if frame.dirty:
                self.disk.write(page_id, frame.payload)
                self.counters.disk_writes += 1
                frame.dirty = False

    def clear(self) -> None:
        """Flush, then empty the pool (used to cold-start a measurement)."""
        self.flush()
        self._frames.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_resident(self, page_id: int) -> bool:
        return page_id in self._frames

    def resident_pages(self) -> frozenset:
        return frozenset(self._frames)

    def dirty_pages(self) -> frozenset:
        """Ids of resident pages whose payload has not been written back."""
        return frozenset(
            page_id for page_id, frame in self._frames.items() if frame.dirty
        )

    def has_dirty(self) -> bool:
        return any(frame.dirty for frame in self._frames.values())

    def __len__(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, page_id: int, payload: Any, dirty: bool) -> None:
        while len(self._frames) >= self.capacity:
            victim, victim_frame = self._frames.popitem(last=False)
            if victim_frame.dirty:
                self.disk.write(victim, victim_frame.payload)
                self.counters.disk_writes += 1
        self._frames[page_id] = _Frame(payload, dirty)
