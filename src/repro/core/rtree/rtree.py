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

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.rtree.node import Entry, RTreeNode
from repro.core.rtree.splits import split_quadratic
from repro.core.treesearch import NodeTree
from repro.geometry import Rect
from repro.storage.context import StorageContext

SplitFn = Callable[[Sequence[Entry], int], Tuple[List[Entry], List[Entry]]]


class GuttmanRTree(NodeTree):
    """The original R-tree (quadratic split by default)."""

    name = "R"
    #: The class's node split; ``split=`` overrides it for one tree (a
    #: reopened tree splits by its class's).
    _split_fn = staticmethod(split_quadratic)

    def __init__(
        self,
        ctx: StorageContext,
        split: SplitFn = split_quadratic,
        min_fill: float = 0.4,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        capacity = self._node_capacity(capacity)
        min_entries = max(2, int(capacity * min_fill))
        if 2 * min_entries > capacity + 1:
            raise ValueError(f"min_fill {min_fill} too large for capacity {capacity}")
        self._split_fn = split
        self._open({"capacity": capacity, "min_entries": min_entries}, None)

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        return {"capacity": self.capacity, "min_entries": self.min_entries}

    def state(self) -> Dict[str, Any]:
        return {
            "state": {
                "root_id": self.root_id,
                "height": self._height,
                "count": self._count,
                "page_ids": sorted(self._page_ids),
            }
        }

    def _open(self, params: Dict[str, Any], state) -> None:
        self.capacity = params["capacity"]
        self.min_entries = params["min_entries"]
        if state is None:
            root = self.ctx.pool.create(RTreeNode(is_leaf=True))
            state = {"root_id": root, "height": 1, "count": 0, "page_ids": [root]}
        else:
            state = state["state"]
        self.root_id: int = state["root_id"]
        self._height: int = state["height"]
        self._count: int = state["count"]
        self._page_ids: Set[int] = set(state["page_ids"])

    def page_inventories(self) -> Dict[str, Set[int]]:
        return {"rtree": set(self._page_ids), **super().page_inventories()}

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
    # Statistics
    # ------------------------------------------------------------------
    def page_count(self) -> int:
        return len(self._page_ids)

    def entry_count(self) -> int:
        return self._count

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
        page_id = self.root_id
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
        self.root_id = self.ctx.pool.create(root)
        self._page_ids.add(self.root_id)
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

        return descend(self.root_id, [])

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
        root = pool.get(self.root_id)
        while not root.is_leaf and len(root.entries) == 1:
            old_root_id = self.root_id
            self.root_id = root.entries[0][1]
            self._page_ids.discard(old_root_id)
            pool.drop(old_root_id)
            self.ctx.disk.free(old_root_id)
            self._height -= 1
            root = pool.get(self.root_id)

        for orphan_level, entries in orphans:
            for r, ref in entries:
                # An orphaned node's level may now exceed the shrunken tree;
                # clamp to re-rooting at the leaves in that (rare) case.
                target = min(orphan_level, self._height - 1)
                self._insert_entry(r, ref, target, overflow_levels=set())
