"""A paged B+-tree with duplicate-key support and full delete rebalancing.

Entries are ``(key, value)`` pairs; many values may share a key (the PMR
quadtree stores one entry per q-edge, keyed by the locational code of its
block), but each exact pair is unique. All ordering is on the composite
pair, so internal separators are exact and scans by key reduce to pair
ranges.

Every node visit goes through the buffer pool, so descending the tree when
its pages are cold is what produces the paper's "disk accesses".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.btree.node import InternalNode, LeafNode
from repro.storage.buffer_pool import BufferPool

_Pair = Tuple[Any, Any]
_KEY = itemgetter(0)


class ScanStats:
    """Node-visit tallies for scans that opt into accounting.

    EXPLAIN hands one of these to :meth:`BPlusTree.scan_range` /
    :meth:`BPlusTree.scan_eq` to learn how many internal pages a descent
    crossed and how many leaves the chain walk touched -- structural
    attribution the buffer-pool counters (which only see hit/miss) cannot
    provide. Purely additive: passing no ``acct`` is the unchanged fast
    path.
    """

    __slots__ = ("internal", "leaves")

    def __init__(self) -> None:
        self.internal = 0
        self.leaves = 0


class BPlusTree:
    """B+-tree over a :class:`~repro.storage.buffer_pool.BufferPool`.

    ``leaf_capacity`` and ``internal_capacity`` are maximum entry counts
    per page, derived by the caller from the page size in bytes.
    """

    def __init__(
        self,
        pool: BufferPool,
        leaf_capacity: int,
        internal_capacity: Optional[int] = None,
    ) -> None:
        if leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2, got {leaf_capacity}")
        self.pool = pool
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = (
            internal_capacity if internal_capacity is not None else leaf_capacity
        )
        if self.internal_capacity < 3:
            raise ValueError(
                f"internal_capacity must be >= 3, got {self.internal_capacity}"
            )
        self.root_id = pool.create(LeafNode())
        self._height = 1
        self._count = 0
        self.page_ids = {self.root_id}

    @classmethod
    def reopen(
        cls,
        pool: BufferPool,
        leaf_capacity: int,
        internal_capacity: int,
        state: Dict[str, Any],
    ) -> "BPlusTree":
        """The tree :meth:`state` described, bound to the pages already
        on ``pool.disk``: nothing is allocated, nothing written."""
        tree = cls.__new__(cls)
        tree.pool = pool
        tree.leaf_capacity = leaf_capacity
        tree.internal_capacity = internal_capacity
        tree.root_id = state["root_id"]
        tree._height = state["height"]
        tree._count = state["count"]
        tree.page_ids = set(state["page_ids"])
        return tree

    def state(self) -> Dict[str, Any]:
        """Root, height, entry count and page inventory: the head a
        snapshot records (the PMR manifest's ``btree`` section)."""
        return {
            "root_id": self.root_id,
            "height": self._height,
            "count": self._count,
            "page_ids": sorted(self.page_ids),
        }

    # ------------------------------------------------------------------
    # Size / shape accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        return self._height

    @property
    def page_count(self) -> int:
        return len(self.page_ids)

    @property
    def bytes_used(self) -> int:
        """Whole pages occupied, as the paper's Table 1 sizes count them."""
        return len(self.page_ids) * self.pool.disk.page_size

    # ------------------------------------------------------------------
    # Lookup and scans
    # ------------------------------------------------------------------
    def _descend(self, probe: _Pair) -> Tuple[int, LeafNode]:
        """Return the (page id, leaf) where ``probe`` would live."""
        page_id = self.root_id
        node = self.pool.get(page_id)
        while not node.is_leaf:
            idx = bisect_right(node.keys, probe)
            page_id = node.children[idx]
            node = self.pool.get(page_id)
        return page_id, node

    def contains(self, key: Any, value: Any) -> bool:
        _, leaf = self._descend((key, value))
        idx = bisect_left(leaf.entries, (key, value))
        return idx < len(leaf.entries) and leaf.entries[idx] == (key, value)

    def scan_range(
        self, lo_key: Any, hi_key: Any, acct: Optional[ScanStats] = None
    ) -> List[_Pair]:
        """The entries with ``lo_key <= key <= hi_key``, in order.

        One descent to ``lo_key``'s leaf, then the leaf chain, slicing
        each leaf between two bisections. The next leaf is fetched only
        when this one ran out without holding a key above ``hi_key`` --
        so a range ending exactly at a leaf's last entry reads one leaf
        more, and the last leaf of the chain ends the scan. ``acct``,
        when given, is advanced by one per node visited.
        """
        get = self.pool.get
        node = get(self.root_id)
        probe = (lo_key,)
        internal = 0
        while not node.is_leaf:
            internal += 1
            node = get(node.children[bisect_right(node.keys, probe)])
        leaves = 1
        entries = node.entries
        start = bisect_left(entries, probe)
        end = bisect_right(entries, hi_key, start, key=_KEY)
        out = entries[start:end]
        while end == len(entries) and node.next_page is not None:
            node = get(node.next_page)
            leaves += 1
            entries = node.entries
            end = bisect_right(entries, hi_key, key=_KEY)
            out += entries[:end]
        if acct is not None:
            acct.internal += internal
            acct.leaves += leaves
        return out

    def scan_eq(self, key: Any, acct: Optional[ScanStats] = None) -> List[Any]:
        """All values stored under exactly ``key``."""
        return [v for _, v in self.scan_range(key, key, acct)]

    def items(self) -> Iterator[_Pair]:
        """All entries in key order (full scan through the leaf chain)."""
        page_id = self.root_id
        node = self.pool.get(page_id)
        while not node.is_leaf:
            page_id = node.children[0]
            node = self.pool.get(page_id)
        while True:
            yield from node.entries
            if node.next_page is None:
                return
            node = self.pool.get(node.next_page)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert the pair; raises ``ValueError`` on an exact duplicate."""
        pair = (key, value)
        path: List[Tuple[int, InternalNode, int]] = []
        page_id = self.root_id
        node = self.pool.get(page_id)
        while not node.is_leaf:
            idx = bisect_right(node.keys, pair)
            path.append((page_id, node, idx))
            page_id = node.children[idx]
            node = self.pool.get(page_id)

        idx = bisect_left(node.entries, pair)
        if idx < len(node.entries) and node.entries[idx] == pair:
            raise ValueError(f"duplicate entry {pair!r}")
        node.entries.insert(idx, pair)
        self.pool.mark_dirty(page_id)
        self._count += 1

        if len(node.entries) <= self.leaf_capacity:
            return

        # Split the leaf: right half moves to a fresh page.
        mid = len(node.entries) // 2
        right = LeafNode(node.entries[mid:], node.next_page)
        node.entries = node.entries[:mid]
        right_id = self.pool.create(right)
        self.page_ids.add(right_id)
        node.next_page = right_id
        self.pool.mark_dirty(page_id)
        self._propagate_split(path, page_id, right.entries[0], right_id)

    def _propagate_split(
        self,
        path: List[Tuple[int, InternalNode, int]],
        left_id: int,
        sep: _Pair,
        right_id: int,
    ) -> None:
        while path:
            parent_id, parent, child_idx = path.pop()
            parent.keys.insert(child_idx, sep)
            parent.children.insert(child_idx + 1, right_id)
            self.pool.mark_dirty(parent_id)
            if len(parent.children) <= self.internal_capacity:
                return
            # Split the internal node; the middle key moves up.
            mid = len(parent.keys) // 2
            sep = parent.keys[mid]
            right_node = InternalNode(
                parent.keys[mid + 1 :], parent.children[mid + 1 :]
            )
            parent.keys = parent.keys[:mid]
            parent.children = parent.children[: mid + 1]
            right_id = self.pool.create(right_node)
            self.page_ids.add(right_id)
            self.pool.mark_dirty(parent_id)
            left_id = parent_id

        # The root itself split: grow the tree by one level.
        new_root = InternalNode([sep], [self.root_id, right_id])
        self.root_id = self.pool.create(new_root)
        self.page_ids.add(self.root_id)
        self._height += 1

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, key: Any, value: Any) -> None:
        """Delete the pair; raises ``KeyError`` when absent."""
        pair = (key, value)
        path: List[Tuple[int, InternalNode, int]] = []
        page_id = self.root_id
        node = self.pool.get(page_id)
        while not node.is_leaf:
            idx = bisect_right(node.keys, pair)
            path.append((page_id, node, idx))
            page_id = node.children[idx]
            node = self.pool.get(page_id)

        idx = bisect_left(node.entries, pair)
        if idx >= len(node.entries) or node.entries[idx] != pair:
            raise KeyError(pair)
        node.entries.pop(idx)
        self.pool.mark_dirty(page_id)
        self._count -= 1
        self._rebalance_after_delete(path, page_id, node)

    def min_leaf(self) -> int:
        return (self.leaf_capacity + 1) // 2

    def min_internal(self) -> int:
        # Minimum child count for a non-root internal node.
        return (self.internal_capacity + 1) // 2

    def _rebalance_after_delete(
        self,
        path: List[Tuple[int, InternalNode, int]],
        page_id: int,
        node,
    ) -> None:
        while True:
            if not path:
                # node is the root.
                if not node.is_leaf and len(node.children) == 1:
                    # Collapse a one-child root.
                    old_root = self.root_id
                    self.root_id = node.children[0]
                    self.page_ids.discard(old_root)
                    self.pool.drop(old_root)
                    self.pool.disk.free(old_root)
                    self._height -= 1
                return

            minimum = self.min_leaf() if node.is_leaf else self.min_internal()
            size = len(node.entries) if node.is_leaf else len(node.children)
            if size >= minimum:
                return

            parent_id, parent, child_idx = path.pop()

            # Try borrowing from the left sibling, then the right.
            if child_idx > 0:
                left_id = parent.children[child_idx - 1]
                left = self.pool.get(left_id)
                left_size = len(left.entries) if left.is_leaf else len(left.children)
                if left_size > minimum:
                    self._borrow_from_left(
                        parent_id, parent, child_idx, left_id, left, page_id, node
                    )
                    return
            if child_idx < len(parent.children) - 1:
                right_id = parent.children[child_idx + 1]
                right = self.pool.get(right_id)
                right_size = (
                    len(right.entries) if right.is_leaf else len(right.children)
                )
                if right_size > minimum:
                    self._borrow_from_right(
                        parent_id, parent, child_idx, page_id, node, right_id, right
                    )
                    return

            # Merge with a sibling (left preferred); parent loses one child.
            if child_idx > 0:
                left_id = parent.children[child_idx - 1]
                left = self.pool.get(left_id)
                self._merge(parent_id, parent, child_idx - 1, left_id, left, page_id, node)
            else:
                right_id = parent.children[child_idx + 1]
                right = self.pool.get(right_id)
                self._merge(parent_id, parent, child_idx, page_id, node, right_id, right)

            page_id, node = parent_id, parent

    def _borrow_from_left(
        self, parent_id, parent, child_idx, left_id, left, page_id, node
    ) -> None:
        if node.is_leaf:
            moved = left.entries.pop()
            node.entries.insert(0, moved)
            parent.keys[child_idx - 1] = node.entries[0]
        else:
            sep = parent.keys[child_idx - 1]
            node.keys.insert(0, sep)
            node.children.insert(0, left.children.pop())
            parent.keys[child_idx - 1] = left.keys.pop()
        self.pool.mark_dirty(left_id)
        self.pool.mark_dirty(page_id)
        self.pool.mark_dirty(parent_id)

    def _borrow_from_right(
        self, parent_id, parent, child_idx, page_id, node, right_id, right
    ) -> None:
        if node.is_leaf:
            moved = right.entries.pop(0)
            node.entries.append(moved)
            parent.keys[child_idx] = right.entries[0]
        else:
            sep = parent.keys[child_idx]
            node.keys.append(sep)
            node.children.append(right.children.pop(0))
            parent.keys[child_idx] = right.keys.pop(0)
        self.pool.mark_dirty(right_id)
        self.pool.mark_dirty(page_id)
        self.pool.mark_dirty(parent_id)

    def _merge(
        self, parent_id, parent, left_pos, left_id, left, right_id, right
    ) -> None:
        """Fold ``right`` into ``left``; ``left_pos`` indexes the separator."""
        if left.is_leaf:
            left.entries.extend(right.entries)
            left.next_page = right.next_page
        else:
            left.keys.append(parent.keys[left_pos])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_pos)
        parent.children.pop(left_pos + 1)
        self.page_ids.discard(right_id)
        self.pool.drop(right_id)
        self.pool.disk.free(right_id)
        self.pool.mark_dirty(left_id)
        self.pool.mark_dirty(parent_id)

    # ------------------------------------------------------------------
    # Validation (test hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """The tests' spelling of the fsck's B-tree walk: raises
        ``AssertionError`` carrying the rendered findings. Peek-only."""
        from repro.analysis.findings import format_findings
        from repro.analysis.fsck_pmr import check_btree

        findings: List[Any] = []
        check_btree(self, findings)
        if findings:
            raise AssertionError(format_findings(findings))
