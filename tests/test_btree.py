"""Unit and property tests for the paged B+-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisect import bisect_left, bisect_right

from repro.btree import BPlusTree, ScanStats
from repro.storage import BufferPool, DiskManager, MetricsCounters


def make_tree(leaf_capacity=4, internal_capacity=4, pool_pages=64):
    disk = DiskManager(page_size=1024)
    counters = MetricsCounters()
    pool = BufferPool(disk, capacity=pool_pages, counters=counters)
    tree = BPlusTree(pool, leaf_capacity, internal_capacity)
    return tree, counters


class TestBasics:
    def test_empty(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert tree.height == 1
        assert list(tree.items()) == []
        assert not tree.contains(1, 1)

    def test_insert_and_contains(self):
        tree, _ = make_tree()
        tree.insert(5, 100)
        assert tree.contains(5, 100)
        assert not tree.contains(5, 101)
        assert len(tree) == 1

    def test_duplicate_pair_rejected(self):
        tree, _ = make_tree()
        tree.insert(5, 100)
        with pytest.raises(ValueError):
            tree.insert(5, 100)

    def test_duplicate_keys_allowed(self):
        tree, _ = make_tree()
        tree.insert(5, 100)
        tree.insert(5, 101)
        tree.insert(5, 99)
        assert tree.scan_eq(5) == [99, 100, 101]

    def test_items_sorted(self):
        tree, _ = make_tree()
        for k in [9, 1, 5, 3, 7, 2, 8, 4, 6, 0]:
            tree.insert(k, k * 10)
        assert list(tree.items()) == [(k, k * 10) for k in range(10)]

    def test_split_grows_height(self):
        tree, _ = make_tree(leaf_capacity=4)
        for k in range(5):
            tree.insert(k, 0)
        assert tree.height == 2
        tree.check_invariants()

    def test_delete_simple(self):
        tree, _ = make_tree()
        tree.insert(5, 100)
        tree.delete(5, 100)
        assert len(tree) == 0
        assert not tree.contains(5, 100)

    def test_delete_absent_raises(self):
        tree, _ = make_tree()
        tree.insert(5, 100)
        with pytest.raises(KeyError):
            tree.delete(5, 999)
        with pytest.raises(KeyError):
            tree.delete(6, 100)

    def test_capacity_validation(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=4)
        with pytest.raises(ValueError):
            BPlusTree(pool, leaf_capacity=1)
        with pytest.raises(ValueError):
            BPlusTree(pool, leaf_capacity=4, internal_capacity=2)


class TestScans:
    def _populated(self):
        tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
        for k in range(0, 100, 2):  # even keys 0..98
            tree.insert(k, k)
        return tree

    def test_scan_range_inclusive(self):
        tree = self._populated()
        got = [k for k, _ in tree.scan_range(10, 20)]
        assert got == [10, 12, 14, 16, 18, 20]

    def test_scan_range_between_keys(self):
        tree = self._populated()
        got = [k for k, _ in tree.scan_range(11, 13)]
        assert got == [12]

    def test_scan_range_empty(self):
        tree = self._populated()
        assert list(tree.scan_range(11, 11)) == []

    def test_scan_range_everything(self):
        tree = self._populated()
        assert len(list(tree.scan_range(-1, 1000))) == 50

    def test_scan_crosses_leaves(self):
        tree = self._populated()
        assert [k for k, _ in tree.scan_range(0, 98)] == list(range(0, 100, 2))

    def test_scan_eq_with_duplicates_across_leaf_boundary(self):
        tree, _ = make_tree(leaf_capacity=2, internal_capacity=3)
        for v in range(10):
            tree.insert(42, v)
        assert tree.scan_eq(42) == list(range(10))
        tree.check_invariants()


class TestBulkRandomized:
    def test_random_insert_delete_against_reference(self):
        rng = random.Random(1234)
        tree, _ = make_tree(leaf_capacity=6, internal_capacity=5, pool_pages=16)
        reference = set()
        for step in range(3000):
            if reference and rng.random() < 0.4:
                pair = rng.choice(sorted(reference))
                tree.delete(*pair)
                reference.discard(pair)
            else:
                pair = (rng.randint(0, 200), rng.randint(0, 10_000))
                if pair in reference:
                    continue
                tree.insert(*pair)
                reference.add(pair)
            if step % 500 == 0:
                tree.check_invariants()
        assert list(tree.items()) == sorted(reference)
        tree.check_invariants()

    def test_delete_everything(self):
        tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
        pairs = [(k % 17, k) for k in range(500)]
        for p in pairs:
            tree.insert(*p)
        rng = random.Random(7)
        rng.shuffle(pairs)
        for p in pairs:
            tree.delete(*p)
        assert len(tree) == 0
        assert list(tree.items()) == []
        assert tree.height == 1
        tree.check_invariants()

    def test_page_accounting_shrinks_after_deletes(self):
        tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
        for k in range(200):
            tree.insert(k, k)
        pages_full = tree.page_count
        for k in range(200):
            tree.delete(k, k)
        assert tree.page_count < pages_full
        assert tree.page_count == 1  # back to a single root leaf

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)),
            min_size=1,
            max_size=300,
        ),
        st.integers(2, 8),
        st.integers(3, 8),
    )
    def test_property_matches_sorted_reference(self, ops, leaf_cap, int_cap):
        tree, _ = make_tree(leaf_capacity=leaf_cap, internal_capacity=int_cap)
        reference = set()
        for pair in ops:
            if pair in reference:
                tree.delete(*pair)
                reference.discard(pair)
            else:
                tree.insert(*pair)
                reference.add(pair)
        assert list(tree.items()) == sorted(reference)
        tree.check_invariants()

    @settings(deadline=None, max_examples=20)
    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=300, unique=True),
        st.integers(0, 1000),
        st.integers(0, 1000),
    )
    def test_property_range_scan_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree, _ = make_tree(leaf_capacity=5, internal_capacity=4)
        for k in keys:
            tree.insert(k, k)
        got = [k for k, _ in tree.scan_range(lo, hi)]
        assert got == sorted(k for k in keys if lo <= k <= hi)


def reference_scan_range(tree, lo_key, hi_key, acct=None):
    """The entry-at-a-time generator ``BPlusTree.scan_range`` was until
    it was bisected, kept unchanged as the oracle of the new one."""
    page_id = tree.root_id
    node = tree.pool.get(page_id)
    probe = (lo_key,)
    while not node.is_leaf:
        if acct is not None:
            acct.internal += 1
        idx = bisect_right(node.keys, probe)
        page_id = node.children[idx]
        node = tree.pool.get(page_id)
    if acct is not None:
        acct.leaves += 1

    idx = bisect_left(node.entries, probe)
    while True:
        while idx < len(node.entries):
            entry = node.entries[idx]
            if entry[0] > hi_key:
                return
            yield entry
            idx += 1
        if node.next_page is None:
            return
        node = tree.pool.get(node.next_page)
        if acct is not None:
            acct.leaves += 1
        idx = 0


def _traced_scan(tree, scan, lo, hi):
    """(entries, (internal, leaves), page ids asked of the pool, in order)."""
    asked = []
    real_get = tree.pool.get
    tree.pool.get = lambda page_id: asked.append(page_id) or real_get(page_id)
    try:
        acct = ScanStats()
        entries = list(scan(lo, hi, acct))
    finally:
        del tree.pool.get
    return entries, (acct.internal, acct.leaves), asked


def assert_scan_matches_reference(tree, lo, hi):
    want = _traced_scan(
        tree, lambda a, b, acct: reference_scan_range(tree, a, b, acct), lo, hi
    )
    assert _traced_scan(tree, tree.scan_range, lo, hi) == want, (lo, hi)


class TestScanAgainstReference:
    """The old scan is the oracle of the new one: equal entries, equal
    ``ScanStats``, and an equal *sequence* of pages asked of the pool."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(4, 16),
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 40)),
            min_size=0, max_size=250, unique=True,
        ),
        st.booleans(),
        st.integers(-2, 62),
        st.integers(-2, 62),
    )
    def test_property_entries_stats_and_page_sequence(
        self, leaf_capacity, pairs, with_bboxes, a, b
    ):
        tree, _ = make_tree(leaf_capacity=leaf_capacity, internal_capacity=4)
        for key, seg_id in pairs:
            # store_bboxes=True writes (seg_id, bbox) tuples as values.
            value = (seg_id, (key, seg_id, key + 1, seg_id + 1)) if with_bboxes else seg_id
            tree.insert(key, value)
        assert_scan_matches_reference(tree, min(a, b), max(a, b))

    @pytest.mark.parametrize("leaf_capacity", [4, 7, 16])
    def test_every_leaf_edge(self, leaf_capacity):
        """Both edges the docstring names, at every leaf: a range ending
        exactly at a leaf's last entry (reads one leaf more) and ranges
        reaching the last leaf of the chain."""
        tree, _ = make_tree(leaf_capacity=leaf_capacity, internal_capacity=4)
        rng = random.Random(leaf_capacity)
        for _ in range(300):
            pair = (rng.randrange(80), rng.randrange(6))
            if not tree.contains(*pair):
                tree.insert(*pair)
        node = tree.pool.get(tree.root_id)
        while not node.is_leaf:
            node = tree.pool.get(node.children[0])
        last_keys = []
        while True:
            last_keys.append(node.entries[-1][0])
            if node.next_page is None:
                break
            node = tree.pool.get(node.next_page)
        assert len(last_keys) > 3
        for last in last_keys:
            for lo in (last - 3, last):
                assert_scan_matches_reference(tree, lo, last)
        assert_scan_matches_reference(tree, last_keys[-1], last_keys[-1] + 5)
        assert_scan_matches_reference(tree, last_keys[-1] + 1, last_keys[-1] + 5)


class TestDiskBehaviour:
    def test_cold_descent_charges_height_reads(self):
        tree, counters = make_tree(leaf_capacity=4, internal_capacity=4, pool_pages=64)
        for k in range(100):
            tree.insert(k, k)
        assert tree.height >= 3
        tree.pool.clear()
        before = counters.disk_reads
        tree.contains(57, 57)
        assert counters.disk_reads - before == tree.height

    def test_warm_descent_charges_nothing(self):
        tree, counters = make_tree(pool_pages=64)
        for k in range(100):
            tree.insert(k, k)
        tree.contains(57, 57)
        before = counters.disk_reads
        tree.contains(57, 57)
        assert counters.disk_reads == before

    def test_bytes_used_counts_whole_pages(self):
        tree, _ = make_tree()
        assert tree.bytes_used == tree.page_count * 1024
