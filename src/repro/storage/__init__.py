"""Paged storage substrate.

The paper measures *disk accesses*: "operations that are expected to cause
reading a page of data that is not currently resident in main memory". This
package provides exactly that measurement apparatus:

* :class:`~repro.storage.disk.DiskManager` -- a page-granular simulated
  disk (pages are Python payloads with byte-accounted layouts).
* :class:`~repro.storage.buffer_pool.BufferPool` -- a fixed-capacity page
  cache with least-recently-used replacement (the paper's 16-page LRU
  pool), counting read misses and write-backs.
* :class:`~repro.storage.counters.MetricsCounters` -- the three quantities
  the paper tabulates: disk accesses, segment comparisons, and bounding
  box / bounding bucket computations.
* :class:`~repro.storage.segment_table.SegmentTable` -- the disk-resident
  table of segment endpoints shared (logically) by all structures; every
  "segment comparison" in the paper is an access to this table.
* :class:`~repro.storage.context.StorageContext` -- bundles one structure's
  complete storage stack so experiments attribute every access correctly.
"""

from repro.storage.buffer_pool import BufferPool
from repro.storage.codec import CodecError
from repro.storage.context import StorageContext
from repro.storage.counters import MetricsCounters, MetricsSnapshot
from repro.storage.disk import DiskManager, PageNotAllocatedError
from repro.storage.latch import Latch
from repro.storage.layout import (
    BTREE_PAGE_HEADER_BYTES,
    PMR_TUPLE_BYTES,
    RTREE_PAGE_HEADER_BYTES,
    RTREE_TUPLE_BYTES,
    SEGMENT_RECORD_BYTES,
    entries_per_page,
)
from repro.storage.segment_table import SegmentTable

__all__ = [
    "BTREE_PAGE_HEADER_BYTES",
    "BufferPool",
    "CodecError",
    "DiskManager",
    "Latch",
    "MetricsCounters",
    "MetricsSnapshot",
    "PMR_TUPLE_BYTES",
    "PageNotAllocatedError",
    "RTREE_PAGE_HEADER_BYTES",
    "RTREE_TUPLE_BYTES",
    "SEGMENT_RECORD_BYTES",
    "SegmentTable",
    "StorageContext",
    "entries_per_page",
]
