"""Guttman's R-tree, the base of the R-tree family.

One node per page; entries are (rectangle, pointer) 2-tuples. The class is
written so the R*-tree only has to override subtree choice and overflow
treatment.

Metric accounting: every entry rectangle examined during a descent, search,
or nearest-neighbour expansion charges one *bounding box computation*
(``ctx.counters.bbox_comps``); page traffic flows through the buffer pool,
which charges *disk accesses*.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro.core.interface import NNItem, SpatialIndex
from repro.core.rtree.node import Entry, RTreeNode
from repro.core.rtree.splits import split_quadratic
from repro.core.treesearch import expand_node, search_tree
from repro.geometry import Point, Rect
from repro.storage.context import StorageContext
from repro.storage.layout import (
    RTREE_PAGE_HEADER_BYTES,
    RTREE_TUPLE_BYTES,
    entries_per_page,
)

SplitFn = Callable[[Sequence[Entry], int], Tuple[List[Entry], List[Entry]]]


class GuttmanRTree(SpatialIndex):
    """The original R-tree (quadratic split by default)."""

    name = "R"

    def __init__(
        self,
        ctx: StorageContext,
        split: SplitFn = split_quadratic,
        min_fill: float = 0.4,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.capacity = (
            capacity
            if capacity is not None
            else entries_per_page(
                ctx.page_size, RTREE_TUPLE_BYTES, RTREE_PAGE_HEADER_BYTES
            )
        )
        if self.capacity < 4:
            raise ValueError(f"page too small: node capacity {self.capacity} < 4")
        self.min_entries = max(2, int(self.capacity * min_fill))
        if 2 * self.min_entries > self.capacity + 1:
            raise ValueError(
                f"min_fill {min_fill} too large for capacity {self.capacity}"
            )
        self._split_fn = split
        self._root_id = ctx.pool.create(RTreeNode(is_leaf=True))
        self._height = 1
        self._page_ids: Set[int] = {self._root_id}
        self._count = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, seg_id: int) -> None:
        seg = self.ctx.segments.fetch(seg_id)
        self._insert_entry(seg.mbr(), seg_id, target_level=0, overflow_levels=set())
        self._count += 1

    def delete(self, seg_id: int) -> None:
        seg = self.ctx.segments.fetch(seg_id)
        rect = seg.mbr()
        path = self._find_leaf(rect, seg_id)
        if path is None:
            raise KeyError(f"segment {seg_id} not in the tree")
        leaf_id, leaf = path[-1]
        leaf.entries = [e for e in leaf.entries if e != (rect, seg_id)]
        self.ctx.pool.mark_dirty(leaf_id)
        self._count -= 1
        self._condense(path)

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------
    def candidate_ids_at_point(self, p: Point) -> List[int]:
        return search_tree(self.ctx, self._root_id, Rect.contains_point, p)

    def candidate_ids_in_rect(self, rect: Rect) -> List[int]:
        return search_tree(self.ctx, self._root_id, Rect.intersects, rect)

    def nn_start(self, p: Point) -> List[NNItem]:
        return [NNItem(0.0, False, self._root_id)]

    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        return expand_node(self.ctx, ref, p)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def page_count(self) -> int:
        return len(self._page_ids)

    def height(self) -> int:
        return self._height

    def entry_count(self) -> int:
        return self._count

    def leaf_occupancy(self) -> float:
        """Average number of entries per leaf page (Concluding Remarks)."""
        leaves = entries = 0
        stack = [self._root_id]
        pool = self.ctx.pool
        while stack:
            node = pool.get(stack.pop())
            if node.is_leaf:
                leaves += 1
                entries += len(node.entries)
            else:
                stack.extend(ref for _, ref in node.entries)
        return entries / leaves if leaves else 0.0

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------
    def _choose_subtree(self, node: RTreeNode, rect: Rect, level: int) -> int:
        """Guttman: least enlargement, ties by least area."""
        self.ctx.counters.bbox_comps += len(node.entries)
        best = 0
        best_key = None
        for idx, (r, _) in enumerate(node.entries):
            key = (r.enlargement(rect), r.area())
            if best_key is None or key < best_key:
                best_key = key
                best = idx
        return best

    def _insert_entry(
        self, rect: Rect, ref: int, target_level: int, overflow_levels: Set[int]
    ) -> None:
        pool = self.ctx.pool
        path: List[Tuple[int, RTreeNode, int]] = []
        page_id = self._root_id
        node: RTreeNode = pool.get(page_id)
        level = self._height - 1
        while level > target_level:
            idx = self._choose_subtree(node, rect, level)
            path.append((page_id, node, idx))
            page_id = node.entries[idx][1]
            node = pool.get(page_id)
            level -= 1

        node.entries.append((rect, ref))
        pool.mark_dirty(page_id)
        self._adjust_upward(path, page_id, node, target_level, overflow_levels)

    def _adjust_upward(
        self,
        path: List[Tuple[int, RTreeNode, int]],
        page_id: int,
        node: RTreeNode,
        level: int,
        overflow_levels: Set[int],
    ) -> None:
        pool = self.ctx.pool
        pending: List[Tuple[int, List[Entry]]] = []
        new_entry: Optional[Entry] = None  # sibling produced by a split below

        while True:
            if new_entry is not None:
                node.entries.append(new_entry)
                pool.mark_dirty(page_id)
                new_entry = None

            if len(node.entries) > self.capacity:
                removed = self._handle_overflow(
                    page_id, node, level, bool(path), overflow_levels
                )
                if removed is not None:
                    pending.append((level, removed))
                else:
                    new_entry = self._split_node(page_id, node)

            if not path:
                if new_entry is not None:
                    self._grow_root(page_id, node, new_entry)
                break

            parent_id, parent, idx = path.pop()
            child_ref = parent.entries[idx][1]
            assert child_ref == page_id
            parent.entries[idx] = (node.mbr(), page_id)
            pool.mark_dirty(parent_id)
            page_id, node = parent_id, parent
            level += 1

        for reinsert_level, entries in pending:
            for r, ref in entries:
                self._insert_entry(r, ref, reinsert_level, overflow_levels)

    def _handle_overflow(
        self,
        page_id: int,
        node: RTreeNode,
        level: int,
        has_parent: bool,
        overflow_levels: Set[int],
    ) -> Optional[List[Entry]]:
        """Hook for overflow treatment.

        Return a list of entries to reinsert (they must already be removed
        from the node), or ``None`` to request a split. The base R-tree
        always splits.
        """
        return None

    def _split_node(self, page_id: int, node: RTreeNode) -> Entry:
        group1, group2 = self._split_fn(node.entries, self.min_entries)
        node.entries = group1
        sibling = RTreeNode(node.is_leaf, group2)
        sibling_id = self.ctx.pool.create(sibling)
        self._page_ids.add(sibling_id)
        self.ctx.pool.mark_dirty(page_id)
        return (sibling.mbr(), sibling_id)

    def _grow_root(self, old_root_id: int, old_root: RTreeNode, new_entry: Entry) -> None:
        root = RTreeNode(
            is_leaf=False,
            entries=[(old_root.mbr(), old_root_id), new_entry],
        )
        self._root_id = self.ctx.pool.create(root)
        self._page_ids.add(self._root_id)
        self._height += 1

    # ------------------------------------------------------------------
    # Deletion machinery
    # ------------------------------------------------------------------
    def _find_leaf(
        self, rect: Rect, seg_id: int
    ) -> Optional[List[Tuple[int, RTreeNode]]]:
        """DFS for the leaf holding (rect, seg_id); returns the root-to-leaf path."""
        pool = self.ctx.pool
        counters = self.ctx.counters

        def descend(page_id: int, path: List[Tuple[int, RTreeNode]]):
            node: RTreeNode = pool.get(page_id)
            counters.bbox_comps += len(node.entries)
            path.append((page_id, node))
            if node.is_leaf:
                if (rect, seg_id) in node.entries:
                    return path
            else:
                for r, child in node.entries:
                    if r.contains_rect(rect):
                        found = descend(child, path)
                        if found is not None:
                            return found
            path.pop()
            return None

        return descend(self._root_id, [])

    def _condense(self, path: List[Tuple[int, RTreeNode]]) -> None:
        pool = self.ctx.pool
        orphans: List[Tuple[int, List[Entry]]] = []  # (level, entries)

        level = 0
        for depth in range(len(path) - 1, 0, -1):
            page_id, node = path[depth]
            parent_id, parent = path[depth - 1]
            if len(node.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e[1] != page_id]
                pool.mark_dirty(parent_id)
                orphans.append((level, list(node.entries)))
                self._page_ids.discard(page_id)
                pool.drop(page_id)
                self.ctx.disk.free(page_id)
            else:
                for idx, (r, ref) in enumerate(parent.entries):
                    if ref == page_id:
                        parent.entries[idx] = (node.mbr(), page_id)
                        break
                pool.mark_dirty(parent_id)
            level += 1

        # Shrink the root while it is an internal node with a single child.
        root = pool.get(self._root_id)
        while not root.is_leaf and len(root.entries) == 1:
            old_root_id = self._root_id
            self._root_id = root.entries[0][1]
            self._page_ids.discard(old_root_id)
            pool.drop(old_root_id)
            self.ctx.disk.free(old_root_id)
            self._height -= 1
            root = pool.get(self._root_id)

        for orphan_level, entries in orphans:
            for r, ref in entries:
                # An orphaned node's level may now exceed the shrunken tree;
                # clamp to re-rooting at the leaves in that (rare) case.
                target = min(orphan_level, self._height - 1)
                self._insert_entry(r, ref, target, overflow_levels=set())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        pool = self.ctx.pool
        seen_pages: Set[int] = set()
        leaf_refs: List[int] = []

        def walk(page_id: int, depth: int, parent_rect: Optional[Rect]) -> None:
            assert page_id in self._page_ids, f"page {page_id} untracked"
            assert page_id not in seen_pages, f"page {page_id} shared"
            seen_pages.add(page_id)
            node: RTreeNode = pool.get(page_id)
            assert len(node.entries) <= self.capacity, "overfull node"
            if page_id != self._root_id:
                assert len(node.entries) >= self.min_entries, "underfull node"
            elif not node.is_leaf:
                assert len(node.entries) >= 2, "internal root with < 2 entries"
            if node.entries and parent_rect is not None:
                assert parent_rect == node.mbr(), "parent MBR not tight"
            if node.is_leaf:
                assert depth == self._height, "leaf at wrong depth"
                leaf_refs.extend(ref for _, ref in node.entries)
            else:
                for r, child in node.entries:
                    walk(child, depth + 1, r)

        walk(self._root_id, 1, None)
        assert seen_pages == self._page_ids, "page bookkeeping mismatch"
        assert len(leaf_refs) == self._count, "entry count mismatch"
