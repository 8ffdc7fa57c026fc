"""The disk-resident segment table.

Every structure stores only *pointers* (segment ids) to geometry; the
endpoints live here, 16 bytes per segment, in insertion order. Insertion
order gives the table the spatial locality the paper relies on ("since the
segments are usually in proximity, they will be stored close to each
other"): maps are generated road-by-road, so consecutive ids are usually
spatial neighbours.

Each access through :meth:`SegmentTable.fetch` (or each id of a
:meth:`SegmentTable.fetch_many`) is one of the paper's *segment
comparisons* and may fault a table page into the buffer pool.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.geometry.segment import Segment
from repro.storage.buffer_pool import BufferPool
from repro.storage.layout import SEGMENT_RECORD_BYTES, entries_per_page


class SegmentTable:
    """Append-only paged table of segment endpoints."""

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool
        self.per_page = entries_per_page(pool.disk.page_size, SEGMENT_RECORD_BYTES)
        self._page_ids: List[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @classmethod
    def attach(
        cls, pool: BufferPool, page_ids: List[int], count: int
    ) -> "SegmentTable":
        """Re-bind a table to pages already on disk (snapshot restore).

        ``page_ids`` must list the table's pages in id order and ``count``
        the stored segments; both come from a snapshot manifest.
        """
        table = cls(pool)
        if count > len(page_ids) * table.per_page:
            raise ValueError(
                f"{count} segments cannot fit in {len(page_ids)} pages "
                f"of {table.per_page} records"
            )
        for page_id in page_ids:
            if not pool.disk.is_allocated(page_id):
                raise ValueError(f"segment table page {page_id} is not on disk")
        table._page_ids = list(page_ids)
        table._count = count
        return table

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    @property
    def bytes_used(self) -> int:
        """Bytes occupied on disk (whole pages, as the paper counts them)."""
        return len(self._page_ids) * self.pool.disk.page_size

    def append(self, segment: Segment) -> int:
        """Store a segment and return its id (sequential from zero)."""
        seg_id = self._count
        slot = seg_id % self.per_page
        if slot == 0:
            page_id = self.pool.create([segment])
            self._page_ids.append(page_id)
        else:
            page_id = self._page_ids[-1]
            payload: List[Segment] = self.pool.get(page_id)
            payload.append(segment)
            self.pool.mark_dirty(page_id)
        self._count += 1
        return seg_id

    def extend(self, segments: List[Segment]) -> List[int]:
        """Append many segments, returning their ids."""
        return [self.append(s) for s in segments]

    def fetch(self, seg_id: int) -> Segment:
        """Fetch a segment's endpoints, charging one segment comparison."""
        if not 0 <= seg_id < self._count:
            raise IndexError(f"segment id {seg_id} out of range (0..{self._count - 1})")
        self.pool.counters.segment_comps += 1
        page = self.pool.get(self._page_ids[seg_id // self.per_page])
        return page[seg_id % self.per_page]

    def fetch_many(self, seg_ids: List[int]) -> List[Segment]:
        """``[self.fetch(i) for i in seg_ids]``, charged identically.

        Every id is validated first: an out-of-range one raises
        ``IndexError`` before anything is charged. Then one segment
        comparison per id, and one :meth:`BufferPool.get` per run of
        consecutive ids on the same table page; the rest of the run is
        charged as buffer hits. A repeated ``get`` of the page the last
        one made most-recently-used is exactly such a hit and moves no
        LRU order, so disk reads, hits, residency and recency all equal
        the per-id loop's.
        """
        count = self._count
        if seg_ids and (min(seg_ids) < 0 or max(seg_ids) >= count):
            bad = next(i for i in seg_ids if not 0 <= i < count)
            raise IndexError(f"segment id {bad} out of range (0..{count - 1})")
        counters = self.pool.counters
        counters.segment_comps += len(seg_ids)
        get = self.pool.get
        page_ids = self._page_ids
        per_page = self.per_page
        out: List[Segment] = []
        append = out.append
        slot_page = -1
        page: List[Segment] = []
        hits = 0
        for seg_id in seg_ids:
            at = seg_id // per_page
            if at == slot_page:
                hits += 1
            else:
                slot_page = at
                page = get(page_ids[at])
            append(page[seg_id % per_page])
        counters.buffer_hits += hits
        return out

    @property
    def page_ids(self) -> List[int]:
        """The table's page ids in slot order (read-only by convention).

        ``seg_id // per_page`` indexes this list; the snapshot writer, the
        fsck and the page inventories read it without reaching into
        private state.
        """
        return self._page_ids

    def peek(self, seg_id: int) -> Segment:
        """Fetch a segment WITHOUT touching counters or the buffer pool.

        Instrumentation bypass for test oracles, map statistics, and data
        generation. Never call this from index or query code: it would
        hide segment comparisons from the measurements.
        """
        if not 0 <= seg_id < self._count:
            raise IndexError(f"segment id {seg_id} out of range (0..{self._count - 1})")
        page = self.pool.disk._pages[self._page_ids[seg_id // self.per_page]]
        return page[seg_id % self.per_page]

    def iter_ids(self) -> Iterator[int]:
        return iter(range(self._count))
