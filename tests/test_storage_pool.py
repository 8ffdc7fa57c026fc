"""Tests for the disk manager, the buffer pool and its LRU replacement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import (
    BufferPool,
    DiskManager,
    MetricsCounters,
    PageNotAllocatedError,
)


class TestDiskManager:
    def test_allocate_and_read(self):
        d = DiskManager()
        pid = d.allocate("hello")
        assert d.read(pid) == "hello"
        assert d.is_allocated(pid)

    def test_sequential_ids(self):
        d = DiskManager()
        assert [d.allocate() for _ in range(3)] == [0, 1, 2]

    def test_read_unallocated_raises(self):
        with pytest.raises(PageNotAllocatedError):
            DiskManager().read(0)

    def test_write_unallocated_raises(self):
        with pytest.raises(PageNotAllocatedError):
            DiskManager().write(7, "x")

    def test_free_then_read_raises(self):
        d = DiskManager()
        pid = d.allocate("x")
        d.free(pid)
        with pytest.raises(PageNotAllocatedError):
            d.read(pid)

    def test_freed_id_is_recycled(self):
        d = DiskManager()
        a = d.allocate()
        d.free(a)
        assert d.allocate() == a  # free list, so churn stays bounded
        assert d.allocate() == a + 1

    def test_allocated_bytes(self):
        d = DiskManager(page_size=512)
        d.allocate()
        d.allocate()
        assert d.allocated_bytes == 1024

    def test_physical_counters(self):
        d = DiskManager()
        pid = d.allocate("a")
        d.read(pid)
        d.write(pid, "b")
        assert d.physical_reads == 1
        assert d.physical_writes == 1

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            DiskManager(page_size=0)


class TestBufferPoolBasics:
    def _pool(self, capacity=2):
        disk = DiskManager()
        counters = MetricsCounters()
        return disk, counters, BufferPool(disk, capacity=capacity, counters=counters)

    def test_miss_then_hit(self):
        disk, counters, pool = self._pool()
        pid = disk.allocate("x")
        assert pool.get(pid) == "x"
        assert counters.disk_reads == 1
        assert pool.get(pid) == "x"
        assert counters.disk_reads == 1
        assert counters.buffer_hits == 1

    def test_create_charges_no_read(self):
        disk, counters, pool = self._pool()
        pool.create("fresh")
        assert counters.disk_reads == 0

    def test_eviction_on_capacity(self):
        disk, counters, pool = self._pool(capacity=2)
        pids = [disk.allocate(i) for i in range(3)]
        pool.get(pids[0])
        pool.get(pids[1])
        pool.get(pids[2])  # evicts pids[0] under LRU
        assert not pool.is_resident(pids[0])
        assert pool.is_resident(pids[1])
        assert pool.is_resident(pids[2])

    def test_lru_order_updated_by_access(self):
        disk, counters, pool = self._pool(capacity=2)
        pids = [disk.allocate(i) for i in range(3)]
        pool.get(pids[0])
        pool.get(pids[1])
        pool.get(pids[0])  # refresh 0
        pool.get(pids[2])  # evicts 1, not 0
        assert pool.is_resident(pids[0])
        assert not pool.is_resident(pids[1])

    def test_dirty_eviction_writes_back(self):
        disk, counters, pool = self._pool(capacity=1)
        a = pool.create(["a"])
        payload = pool.get(a)
        payload.append("more")
        pool.mark_dirty(a)
        b = disk.allocate("b")
        pool.get(b)  # evicts a, which is dirty
        assert counters.disk_writes >= 1
        assert disk._pages[a] == ["a", "more"]

    def test_clean_eviction_no_write(self):
        disk, counters, pool = self._pool(capacity=1)
        a = disk.allocate("a")
        pool.get(a)
        writes_before = counters.disk_writes
        b = disk.allocate("b")
        pool.get(b)
        assert counters.disk_writes == writes_before

    def test_mark_dirty_faults_in_absent_page(self):
        disk, counters, pool = self._pool(capacity=2)
        a = disk.allocate("a")
        pool.mark_dirty(a)
        assert counters.disk_reads == 1
        assert pool.is_resident(a)

    def test_flush_writes_all_dirty(self):
        disk, counters, pool = self._pool(capacity=4)
        a = pool.create("a")
        b = pool.create("b")
        pool.flush()
        assert disk._pages[a] == "a"
        assert disk._pages[b] == "b"
        assert counters.disk_writes == 2
        # A second flush writes nothing: pages are now clean.
        pool.flush()
        assert counters.disk_writes == 2

    def test_clear_cold_starts(self):
        disk, counters, pool = self._pool(capacity=4)
        a = pool.create("a")
        pool.clear()
        assert len(pool) == 0
        pool.get(a)
        assert counters.disk_reads == 1

    def test_drop_discards_without_writeback(self):
        disk, counters, pool = self._pool(capacity=4)
        a = pool.create("a")
        pool.drop(a)
        writes = counters.disk_writes
        pool.flush()
        assert counters.disk_writes == writes

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(DiskManager(), capacity=0)


class TestPolicies:
    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=4),
    )
    def test_policies_never_exceed_capacity_in_pool(self, accesses, capacity):
        disk = DiskManager()
        pids = [disk.allocate(i) for i in range(10)]
        pool = BufferPool(disk, capacity=capacity)
        for a in accesses:
            assert pool.get(pids[a]) == a
            assert len(pool) <= capacity

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200))
    def test_lru_pool_matches_reference_simulation(self, accesses):
        """The pool's miss count must equal a textbook LRU simulation."""
        capacity = 3
        disk = DiskManager()
        pids = [disk.allocate(i) for i in range(10)]
        counters = MetricsCounters()
        pool = BufferPool(disk, capacity=capacity, counters=counters)

        resident = []
        expected_misses = 0
        for a in accesses:
            pool.get(pids[a])
            if a in resident:
                resident.remove(a)
            else:
                expected_misses += 1
                if len(resident) >= capacity:
                    resident.pop(0)
            resident.append(a)
        assert counters.disk_reads == expected_misses


class TestCounters:
    def test_snapshot_delta(self):
        c = MetricsCounters()
        before = c.snapshot()
        c.disk_reads += 3
        c.segment_comps += 2
        delta = c.since(before)
        assert delta.disk_reads == 3
        assert delta.segment_comps == 2
        assert delta.bbox_comps == 0
        assert delta.disk_accesses == 3

    def test_snapshot_add(self):
        from repro.storage import MetricsSnapshot

        a = MetricsSnapshot(1, 2, 3, 4, 5)
        b = MetricsSnapshot(10, 20, 30, 40, 50)
        assert a + b == MetricsSnapshot(11, 22, 33, 44, 55)

    def test_reset(self):
        c = MetricsCounters(disk_reads=5, bbox_comps=7)
        c.reset()
        assert c.snapshot() == MetricsCounters().snapshot()
