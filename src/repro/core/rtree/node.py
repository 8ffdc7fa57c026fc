"""The R-tree family's node payload (one node per disk page): R, R* and
R+ alike keep 20-byte ``(R, O)`` 2-tuples, 50 to a 1 KiB page."""

from __future__ import annotations

from typing import List, Tuple

from repro.geometry import Rect

#: An entry is the paper's 2-tuple (R, O): a rectangle plus a pointer.
#: In leaves O is a segment id and R its MBR; in non-leaves O is a child
#: page id and R the child's MBR -- or, in the R+-tree, its partition
#: region (the regions of one node tile its own region exactly).
Entry = Tuple[Rect, int]


class RTreeNode:
    __slots__ = ("is_leaf", "entries")

    def __init__(self, is_leaf: bool, entries: List[Entry] = None) -> None:
        self.is_leaf = is_leaf
        self.entries: List[Entry] = entries if entries is not None else []

    def mbr(self) -> Rect:
        """The minimum bounding rectangle of this node's entries."""
        return Rect.union_of(r for r, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)
