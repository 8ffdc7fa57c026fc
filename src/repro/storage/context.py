"""One structure's complete storage stack.

The paper gives each structure under test its own 16-page buffer pool; a
:class:`StorageContext` bundles the disk, pool, counters, and segment table
so that every disk access and segment comparison is attributed to exactly
one structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional

from repro.geometry.segment import Segment
from repro.storage.buffer_pool import BufferPool
from repro.storage.counters import MetricsCounters
from repro.storage.disk import DiskManager
from repro.storage.segment_table import SegmentTable


@dataclass
class StorageContext:
    """Disk + buffer pool + counters + segment table for one structure."""

    disk: DiskManager
    counters: MetricsCounters
    pool: BufferPool
    segments: SegmentTable
    #: The EXPLAIN profile (a :class:`repro.obs.explain.ExplainProfile`)
    #: the traversal running on this stack charges its per-level work
    #: into, or None. The engine sets it under the pool latch, in the
    #: same swap as the scratch counters, and restores it afterwards.
    profile: Optional[Any] = field(default=None, init=False)

    @classmethod
    def create(cls, page_size: int = 1024, pool_pages: int = 16) -> "StorageContext":
        """Build a fresh stack with the paper's defaults (1 KiB x 16, LRU)."""
        disk = DiskManager(page_size=page_size)
        counters = MetricsCounters()
        pool = BufferPool(disk, capacity=pool_pages, counters=counters)
        table = SegmentTable(pool)
        return cls(disk=disk, counters=counters, pool=pool, segments=table)

    @classmethod
    def from_disk(
        cls,
        disk: DiskManager,
        pool_pages: int = 16,
        segment_page_ids: Optional[List[int]] = None,
        segment_count: int = 0,
    ) -> "StorageContext":
        """Build a stack over an existing (e.g. snapshot-loaded) disk.

        When ``segment_page_ids`` is given the segment table is re-bound
        to those pages instead of starting empty.
        """
        counters = MetricsCounters()
        pool = BufferPool(disk, capacity=pool_pages, counters=counters)
        if segment_page_ids is None:
            table = SegmentTable(pool)
        else:
            table = SegmentTable.attach(pool, segment_page_ids, segment_count)
        return cls(disk=disk, counters=counters, pool=pool, segments=table)

    @property
    def page_size(self) -> int:
        return self.disk.page_size

    def load_segments(self, segments: Iterable[Segment]) -> List[int]:
        """Append segments to the table, returning their assigned ids."""
        return [self.segments.append(s) for s in segments]
