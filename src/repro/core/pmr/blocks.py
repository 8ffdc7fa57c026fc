"""The in-memory quadtree directory of a linear PMR quadtree.

Only the *entries* of the PMR quadtree are disk-resident (in the B-tree);
the block decomposition itself is navigational state. A pure linear
quadtree recovers it from B-tree probes; we keep it as an explicit
directory of lightweight blocks, which leaves the disk traffic identical
(every entry read or write still goes through the B-tree) while making
block navigation -- the paper's cheap "bounding bucket computations" --
explicit and countable.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.geometry import Rect, Segment
from repro.geometry.clipping import segment_intersects_box


class PMRBlock:
    """One quadtree block: a leaf bucket or an internal (split) block.

    ``count`` is the number of q-edge entries stored under this block's
    locational code in the B-tree; it is meaningful only for leaves.
    Children are ordered SW, SE, NW, NE (Morton order). ``lcode`` is the
    block's Morton locational code, remembered by
    :meth:`PMRQuadtree.code_of` on first use: navigational state, never
    serialised.
    """

    __slots__ = ("depth", "bx", "by", "count", "children", "lcode")

    def __init__(self, depth: int, bx: int, by: int) -> None:
        self.depth = depth
        self.bx = bx
        self.by = by
        self.count = 0
        self.children: Optional[List["PMRBlock"]] = None
        self.lcode: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def rect(self, world_size: int) -> Rect:
        size = world_size >> self.depth
        x = self.bx * size
        y = self.by * size
        return Rect(x, y, x + size, y + size)

    def split(self) -> List["PMRBlock"]:
        """Create the four equal children (the caller moves the entries)."""
        if self.children is not None:
            raise ValueError("block is already split")
        d = self.depth + 1
        self.children = [
            PMRBlock(d, 2 * self.bx, 2 * self.by),  # SW
            PMRBlock(d, 2 * self.bx + 1, 2 * self.by),  # SE
            PMRBlock(d, 2 * self.bx, 2 * self.by + 1),  # NW
            PMRBlock(d, 2 * self.bx + 1, 2 * self.by + 1),  # NE
        ]
        self.count = 0
        return self.children

    def merge(self) -> None:
        """Fold the children back into this block (caller moves entries)."""
        if self.children is None:
            raise ValueError("cannot merge a leaf")
        self.children = None

    def child_containing(self, x: float, y: float, world_size: int) -> "PMRBlock":
        """The unique child whose half-open pixel region contains (x, y)."""
        if self.children is None:
            raise ValueError("leaf has no children")
        half = world_size >> (self.depth + 1)
        dx = 1 if x >= (2 * self.bx + 1) * half else 0
        dy = 1 if y >= (2 * self.by + 1) * half else 0
        return self.children[2 * dy + dx]

    def children_meeting(self, seg: Segment, world_size: int) -> List["PMRBlock"]:
        """The children whose closed square ``seg`` meets, in Morton
        order: integer corners from ``(bx, by, size)``, no ``Rect``."""
        size = world_size >> (self.depth + 1)
        x1, y1, x2, y2 = seg
        out = []
        for c in self.children:
            x = c.bx * size
            y = c.by * size
            if segment_intersects_box(x1, y1, x2, y2, x, y, x + size, y + size):
                out.append(c)
        return out

    def iter_leaves(self) -> Iterator["PMRBlock"]:
        if self.children is None:
            yield self
        else:
            for child in self.children:
                yield from child.iter_leaves()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "internal"
        return f"<PMRBlock {kind} d={self.depth} ({self.bx},{self.by}) n={self.count}>"


#: Directory byte grammar, pre-order (children SW SE NW NE): one tag a
#: block -- ``SPLIT``, a leaf's q-edge count below ``WIDE``, or ``WIDE``
#: and the count as a u32 LE. Depth and ``(bx, by)`` follow from position.
SPLIT = 0xFF
WIDE = 0xFE


def encode_directory(root: PMRBlock) -> bytes:
    out = bytearray()
    stack = [root]
    while stack:
        block = stack.pop()
        if block.children is not None:
            out.append(SPLIT)
            stack.extend(reversed(block.children))
        elif block.count < WIDE:
            out.append(block.count)
        else:
            out.append(WIDE)
            out += block.count.to_bytes(4, "little")
    return bytes(out)


def decode_directory(data: bytes, max_depth: int) -> PMRBlock:
    """The tree :func:`encode_directory` wrote (``lcode`` unset).
    ``ValueError`` for bytes that are not exactly one such tree."""
    root = PMRBlock(0, 0, 0)
    stack = [root]
    pos = 0
    while stack:
        block = stack.pop()
        tag = data[pos] if pos < len(data) else None
        pos += 1
        if tag == SPLIT and block.depth < max_depth:
            stack.extend(reversed(block.split()))
        elif tag == WIDE and pos + 4 <= len(data):
            block.count = int.from_bytes(data[pos : pos + 4], "little")
            pos += 4
        elif tag is not None and tag < WIDE:
            block.count = tag
        else:
            raise ValueError(
                f"block directory: byte {pos - 1} of {len(data)} cannot be a "
                f"block at depth {block.depth} (max_depth {max_depth})"
            )
    if pos != len(data):
        raise ValueError(f"block directory has {len(data) - pos} trailing byte(s)")
    return root
