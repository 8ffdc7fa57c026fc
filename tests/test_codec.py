"""Round-trip tests for the byte-level page codecs."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import InternalNode, LeafNode
from repro.core.rtree.node import RTreeNode
from repro.geometry import Rect, Segment
from repro.storage import DiskManager, StorageContext
from repro.storage.codec import (
    CodecError,
    decode_btree_node,
    decode_rtree_node,
    decode_segment_page,
    dump_database,
    encode_btree_node,
    encode_rtree_node,
    encode_segment_page,
    load_database,
)

coords = st.integers(min_value=0, max_value=16383)


class TestRTreeNodeCodec:
    def test_roundtrip_leaf(self):
        node = RTreeNode(True, [(Rect(1, 2, 3, 4), 7), (Rect(0, 0, 10, 10), 9)])
        got = decode_rtree_node(encode_rtree_node(node, 1024))
        assert got.is_leaf == node.is_leaf
        assert got.entries == node.entries

    def test_roundtrip_internal(self):
        node = RTreeNode(False, [(Rect(0, 0, 100, 100), 3)])
        got = decode_rtree_node(encode_rtree_node(node, 1024))
        assert not got.is_leaf
        assert got.entries == node.entries

    def test_paper_capacity_exactly_fits(self):
        """50 entries of 20 bytes + 24-byte header = exactly 1 KiB."""
        node = RTreeNode(True, [(Rect(i, i, i + 1, i + 1), i) for i in range(50)])
        blob = encode_rtree_node(node, 1024)
        assert len(blob) <= 1024
        assert len(blob) == 8 + 50 * 20  # our header is 8 of the 24 budget

    def test_overflow_rejected(self):
        node = RTreeNode(True, [(Rect(i, i, i + 1, i + 1), i) for i in range(60)])
        with pytest.raises(CodecError):
            encode_rtree_node(node, 1024)

    def test_rplus_node_roundtrip(self):
        """An R+ page is an ``RTreeNode`` whose non-leaf rectangles are
        partition tiles: same bytes, same payload class."""
        node = RTreeNode(False, [(Rect(0, 0, 512, 1024), 2), (Rect(512, 0, 1024, 1024), 3)])
        got = decode_rtree_node(encode_rtree_node(node, 1024))
        assert isinstance(got, RTreeNode)
        assert got.entries == node.entries

    @settings(deadline=None, max_examples=50)
    @given(
        st.booleans(),
        st.lists(
            st.tuples(coords, coords, coords, coords, st.integers(0, 2**30)),
            max_size=50,
        ),
    )
    def test_roundtrip_property(self, is_leaf, raw):
        entries = [
            (Rect(min(a, c), min(b, d), max(a, c), max(b, d)), ref)
            for a, b, c, d, ref in raw
        ]
        node = RTreeNode(is_leaf, entries)
        got = decode_rtree_node(encode_rtree_node(node, 4096))
        assert got.entries == node.entries


class TestBTreeNodeCodec:
    def test_leaf_roundtrip(self):
        node = LeafNode([(5, 100), (7, 200)], next_page=42)
        got = decode_btree_node(encode_btree_node(node, 1024))
        assert got.is_leaf
        assert got.entries == node.entries
        assert got.next_page == 42

    def test_leaf_no_next(self):
        node = LeafNode([(5, 100)], next_page=None)
        got = decode_btree_node(encode_btree_node(node, 1024))
        assert got.next_page is None

    def test_internal_roundtrip(self):
        node = InternalNode(keys=[(10, 3), (20, 9)], children=[1, 2, 3])
        got = decode_btree_node(encode_btree_node(node, 1024))
        assert not got.is_leaf
        assert got.keys == node.keys
        assert got.children == node.children

    def test_depth14_morton_codes_fit(self):
        """Depth-14 codes occupy 28 bits: the paper's 4-byte field holds."""
        big = 4**14 - 1
        node = LeafNode([(big, 7)], next_page=None)
        got = decode_btree_node(encode_btree_node(node, 1024))
        assert got.entries == [(big, 7)]

    def test_oversize_code_rejected(self):
        node = LeafNode([(2**40, 7)], next_page=None)
        with pytest.raises(CodecError):
            encode_btree_node(node, 1024)

    def test_full_paper_leaf_fits_exactly(self):
        """120 leaf tuples of 8 bytes fit the 1 KiB page budget."""
        node = LeafNode([(i, i) for i in range(120)], next_page=3)
        blob = encode_btree_node(node, 1024)
        assert len(blob) <= 1024
        assert len(blob) == 16 + 120 * 8

    def test_full_internal_node_fits(self):
        """An internal node at the 12-byte-entry capacity fits a page."""
        from repro.storage import BTREE_PAGE_HEADER_BYTES
        from repro.storage.layout import BTREE_INTERNAL_ENTRY_BYTES, entries_per_page

        cap = entries_per_page(
            1024, BTREE_INTERNAL_ENTRY_BYTES, BTREE_PAGE_HEADER_BYTES
        )
        node = InternalNode(
            keys=[(i, i) for i in range(cap - 1)],
            children=list(range(cap)),
        )
        blob = encode_btree_node(node, 1024)
        assert len(blob) <= 1024

    def test_non_int_values_rejected(self):
        node = LeafNode([(5, (1, (0, 0, 1, 1)))], next_page=None)
        with pytest.raises(CodecError):
            encode_btree_node(node, 1024)

    def test_overflow_rejected(self):
        node = LeafNode([(i, i) for i in range(200)], next_page=None)
        with pytest.raises(CodecError):
            encode_btree_node(node, 1024)


class TestSegmentPageCodec:
    def test_roundtrip(self):
        segs = [Segment(1, 2, 3, 4), Segment(0, 0, 16383, 16383)]
        got = decode_segment_page(encode_segment_page(segs, 1024))
        assert got == segs

    def test_empty_page(self):
        assert decode_segment_page(encode_segment_page([], 1024)) == []

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.tuples(coords, coords, coords, coords), max_size=64))
    def test_roundtrip_property(self, raw):
        segs = [Segment(*t) for t in raw]
        got = decode_segment_page(encode_segment_page(segs, 1024))
        assert got == segs


class TestDatabaseSnapshot:
    def test_dump_load_full_index(self):
        """Persist a whole built structure and query the reloaded copy."""
        from repro.core import PMRQuadtree, RStarTree
        from repro.core.queries import QuerySpec, execute_spec
        from tests.conftest import lattice_map

        segs = lattice_map(n=8, pitch=110)
        ctx = StorageContext.create()
        idx = RStarTree(ctx)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        ctx.pool.flush()

        buf = io.BytesIO()
        n = dump_database(ctx.disk, buf)
        assert n == len(ctx.disk)

        buf.seek(0)
        disk2 = load_database(buf)
        assert len(disk2) == len(ctx.disk)
        assert disk2.page_size == ctx.disk.page_size

        # Transplant the reloaded pages under the original index and
        # re-run a query: results must be identical.
        expected = set(execute_spec(idx, QuerySpec.window(Rect(0, 0, 1024, 1024))))
        ctx.disk._pages = disk2._pages
        ctx.pool.clear()
        got = set(execute_spec(idx, QuerySpec.window(Rect(0, 0, 1024, 1024))))
        assert got == expected

    def test_dump_pmr_btree(self):
        from repro.core import PMRQuadtree
        from tests.conftest import TEST_DEPTH, TEST_WORLD, lattice_map

        segs = lattice_map(n=8, pitch=110)
        ctx = StorageContext.create()
        idx = PMRQuadtree(ctx, max_depth=TEST_DEPTH, world_size=TEST_WORLD)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        ctx.pool.flush()
        buf = io.BytesIO()
        n = dump_database(ctx.disk, buf)
        buf.seek(0)
        disk2 = load_database(buf)
        assert len(disk2) == n

    def test_unknown_payload_rejected(self):
        disk = DiskManager()
        disk.allocate({"not": "serializable"})
        with pytest.raises(CodecError):
            dump_database(disk, io.BytesIO())

    def test_dump_load_rplus_with_fractional_splits(self):
        """R+ regions split at midpoints carry .5^k coordinates; they
        must survive the float32 on-disk format exactly."""
        from repro.core import RPlusTree
        from repro.core.queries import QuerySpec, execute_spec
        from tests.conftest import TEST_WORLD, lattice_map

        segs = lattice_map(n=9, pitch=100, jitter=13, seed=6)
        ctx = StorageContext.create()
        idx = RPlusTree(ctx, world=Rect(0, 0, TEST_WORLD, TEST_WORLD), capacity=8)
        for sid in ctx.load_segments(segs):
            idx.insert(sid)
        ctx.pool.flush()

        expected = set(execute_spec(idx, QuerySpec.window(Rect(50, 50, 900, 900))))
        buf = io.BytesIO()
        dump_database(ctx.disk, buf)
        buf.seek(0)
        disk2 = load_database(buf)
        ctx.disk._pages = disk2._pages
        ctx.pool.clear()
        idx.check_invariants()  # exact tiling must survive serialization
        got = set(execute_spec(idx, QuerySpec.window(Rect(50, 50, 900, 900))))
        assert got == expected
