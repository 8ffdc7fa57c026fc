"""Morton (Z-order) locational codes.

The paper's linear quadtree stores, per q-edge, a 2-tuple ``(L, O)`` where
``L`` is the *locational code* of the block: the bit-interleaved value of
the x and y coordinates of its lower-left corner together with its depth.
Sorting blocks by the interleaved corner value (at full resolution) lays
the leaf blocks out in Z-order, which is what makes a B-tree on ``L``
cluster spatially-adjacent buckets on the same pages.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.interface import WORLD_SIZE

_B = [
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
]


def _part1by1(n: int) -> int:
    """Spread the low 32 bits of ``n`` to the even bit positions."""
    n &= 0xFFFFFFFF
    n = (n | (n << 16)) & _B[4]
    n = (n | (n << 8)) & _B[3]
    n = (n | (n << 4)) & _B[2]
    n = (n | (n << 2)) & _B[1]
    n = (n | (n << 1)) & _B[0]
    return n


def _compact1by1(n: int) -> int:
    """Inverse of :func:`_part1by1`."""
    n &= _B[0]
    n = (n | (n >> 1)) & _B[1]
    n = (n | (n >> 2)) & _B[2]
    n = (n | (n >> 4)) & _B[3]
    n = (n | (n >> 8)) & _B[4]
    n = (n | (n >> 16)) & 0xFFFFFFFF
    return n


def interleave(x: int, y: int) -> int:
    """Morton code: x in the even bit positions, y in the odd ones."""
    return _part1by1(x) | (_part1by1(y) << 1)


def morton_key(x: float, y: float) -> int:
    """Z-order key of a coordinate, clamped into the paper's world."""
    xi = min(max(int(x), 0), WORLD_SIZE - 1)
    yi = min(max(int(y), 0), WORLD_SIZE - 1)
    return interleave(xi, yi)


def deinterleave(code: int) -> Tuple[int, int]:
    """Recover (x, y) from a Morton code."""
    return _compact1by1(code), _compact1by1(code >> 1)


def locational_code(bx: int, by: int, depth: int, max_depth: int) -> int:
    """The B-tree key of the block at grid position (bx, by) and ``depth``.

    The code is the Morton index of the block's lower-left corner expressed
    at full (``max_depth``) resolution, so the half-open code intervals of
    the leaf blocks partition ``[0, 4**max_depth)`` and sort in Z-order.
    """
    return interleave(bx, by) << (2 * (max_depth - depth))


def hilbert_index(order: int, x: int, y: int) -> int:
    """Index of cell (x, y) along the Hilbert curve of ``2^order`` cells
    per side. The classic iterative quadrant-rotation algorithm."""
    d = 0
    s = 1 << (order - 1) if order > 0 else 0
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_point(order: int, d: int) -> Tuple[int, int]:
    """Inverse of :func:`hilbert_index`: the cell (x, y) at distance ``d``
    along the Hilbert curve of ``2^order`` cells per side.

    The shard layer uses this to turn a half-open curve-key range back
    into the set of grid cells it covers, from which a shard's spatial
    extent is derived.
    """
    n = 1 << order
    if not 0 <= d < n * n:
        raise ValueError(f"index {d} outside the order-{order} curve")
    x = y = 0
    t = d
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def hilbert_code(bx: int, by: int, depth: int, max_depth: int) -> int:
    """Hilbert-curve analogue of :func:`locational_code`.

    Self-similarity gives the Hilbert curve the same property Morton
    codes rely on: every quadtree block occupies one contiguous run of
    ``4^(max_depth - depth)`` cells along the curve, so the block's key
    is its depth-level Hilbert index scaled to full resolution. Hilbert
    ordering keeps more spatially-adjacent blocks adjacent on B-tree
    pages; the curve ablation measures the effect on window queries.
    """
    return hilbert_index(depth, bx, by) << (2 * (max_depth - depth))
