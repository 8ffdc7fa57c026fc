"""Sort-Tile-Recursive (STR) bulk loading for the R-tree family.

The paper builds every structure dynamically, one segment at a time, and
pays for it (Table 1: the R*-tree's build is ~8x the R+-tree's). STR
packing (Leutenegger, Lopez & Edgington) is the standard production
alternative: sort the rectangles by x-centre, cut into vertical slices of
~sqrt(n/B) runs, sort each slice by y-centre, pack runs of B into leaves,
and repeat one level up until a single root remains. One pass, nearly
full pages, no splits, no reinsertion.

The ablation benchmark compares an STR-packed tree against the
dynamically built R*-tree on build cost and query behaviour.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from repro.core.rtree.node import RTreeNode
from repro.core.rtree.rtree import GuttmanRTree
from repro.geometry import Rect


def _pack_level(
    tree: GuttmanRTree, entries: List[Tuple[Rect, int]], is_leaf: bool, capacity: int
) -> List[Tuple[Rect, int]]:
    """Pack one level of entries into nodes; return the parent entries."""
    n = len(entries)
    node_count = math.ceil(n / capacity)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    per_slice = slice_count * capacity

    entries = sorted(entries, key=lambda e: e[0].xmin + e[0].xmax)
    groups: List[List[Tuple[Rect, int]]] = []
    for s in range(0, n, per_slice):
        chunk = sorted(
            entries[s : s + per_slice], key=lambda e: e[0].ymin + e[0].ymax
        )
        for r in range(0, len(chunk), capacity):
            groups.append(chunk[r : r + capacity])

    # Slice tails can fall under the minimum fill; fold each underfull
    # group into its predecessor, re-splitting evenly if that overflows
    # (both halves then sit at >= capacity/2 >= m).
    fixed: List[List[Tuple[Rect, int]]] = []
    for group in groups:
        if len(group) < tree.min_entries and fixed:
            merged = fixed.pop() + group
            if len(merged) <= tree.capacity:
                fixed.append(merged)
            else:
                half = len(merged) // 2
                fixed.append(merged[:half])
                fixed.append(merged[half:])
        else:
            fixed.append(group)

    parents: List[Tuple[Rect, int]] = []
    for group in fixed:
        node = RTreeNode(is_leaf, group)
        page_id = tree.ctx.pool.create(node)
        tree._page_ids.add(page_id)
        parents.append((node.mbr(), page_id))
    return parents


def bulk_load_str(
    tree: GuttmanRTree, seg_ids: Iterable[int], fill: float = 1.0
) -> None:
    """STR-pack ``seg_ids`` into an empty R-tree.

    ``fill`` caps the packing density (1.0 = completely full pages;
    production systems often leave headroom, e.g. 0.7, so that later
    dynamic insertions do not immediately split every node).

    Raises ``ValueError`` on a non-empty tree or out-of-range ``fill``.
    """
    if tree.entry_count() != 0:
        raise ValueError("bulk_load_str requires an empty tree")
    if not 0.1 <= fill <= 1.0:
        raise ValueError(f"fill must be in [0.1, 1.0], got {fill}")
    capacity = max(tree.min_entries, int(tree.capacity * fill))

    entries: List[Tuple[Rect, int]] = []
    for seg_id in seg_ids:
        seg = tree.ctx.segments.fetch(seg_id)
        entries.append((seg.mbr(), seg_id))
    if not entries:
        return

    count = len(entries)
    level_entries = entries
    is_leaf = True
    height = 0
    while True:
        height += 1
        if len(level_entries) <= tree.capacity and not is_leaf:
            # These entries fit a single root node.
            root = RTreeNode(False, level_entries)
            root_id = tree.ctx.pool.create(root)
            tree._page_ids.add(root_id)
            break
        if len(level_entries) <= tree.capacity and is_leaf:
            root = RTreeNode(True, level_entries)
            root_id = tree.ctx.pool.create(root)
            tree._page_ids.add(root_id)
            break
        level_entries = _pack_level(tree, level_entries, is_leaf, capacity)
        is_leaf = False

    # Swap the freshly packed tree in for the empty root.
    old_root = tree.root_id
    tree._page_ids.discard(old_root)
    tree.ctx.pool.drop(old_root)
    tree.ctx.disk.free(old_root)
    tree.root_id = root_id
    tree._height = height
    tree._count = count
