"""Plain-text rendering of maps and decompositions.

Figure-1-style ASCII pictures for terminals, docs, and debugging: a
segment map rasterized onto a character grid, optionally with the PMR
quadtree's block boundaries or an R-tree's leaf MBRs drawn over it.

These renderers read geometry through the instrumentation bypasses
(``peek`` / direct directory access), so drawing a picture never
perturbs an experiment's counters or buffer pool.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.geometry import Rect, Segment


def _blank(width: int, height: int) -> List[List[str]]:
    return [[" "] * width for _ in range(height)]


def _to_cell(x: float, y: float, world: float, width: int, height: int):
    cx = min(int(x / world * width), width - 1)
    cy = min(int(y / world * height), height - 1)
    return cx, height - 1 - cy  # y axis points up


def _draw_segment(grid, seg: Segment, world, width, height, ch="*") -> None:
    """Rasterize with a simple DDA walk."""
    x1, y1 = _to_cell(seg.x1, seg.y1, world, width, height)
    x2, y2 = _to_cell(seg.x2, seg.y2, world, width, height)
    steps = max(abs(x2 - x1), abs(y2 - y1), 1)
    for i in range(steps + 1):
        t = i / steps
        cx = round(x1 + t * (x2 - x1))
        cy = round(y1 + t * (y2 - y1))
        if 0 <= cy < height and 0 <= cx < width:
            grid[cy][cx] = ch


def _draw_rect_outline(grid, r: Rect, world, width, height) -> None:
    x1, y1 = _to_cell(r.xmin, r.ymin, world, width, height)
    x2, y2 = _to_cell(r.xmax, r.ymax, world, width, height)
    top, bottom = min(y1, y2), max(y1, y2)
    left, right = min(x1, x2), max(x1, x2)
    for cx in range(left, right + 1):
        for cy in (top, bottom):
            if grid[cy][cx] == " ":
                grid[cy][cx] = "-"
    for cy in range(top, bottom + 1):
        for cx in (left, right):
            if grid[cy][cx] == " ":
                grid[cy][cx] = "|"
            elif grid[cy][cx] == "-":
                grid[cy][cx] = "+"


def render_segments(
    segments: Sequence[Segment],
    world_size: float,
    width: int = 64,
    height: int = 32,
    overlay_rects: Optional[Iterable[Rect]] = None,
) -> str:
    """An ASCII picture of a segment map, optionally with rectangles.

    Returns ``height`` lines of ``width`` characters, framed.
    """
    if width < 2 or height < 2:
        raise ValueError("width and height must be at least 2")
    grid = _blank(width, height)
    if overlay_rects is not None:
        for r in overlay_rects:
            _draw_rect_outline(grid, r, world_size, width, height)
    for seg in segments:
        _draw_segment(grid, seg, world_size, width, height)
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    return f"{border}\n{body}\n{border}"


def render_pmr_blocks(pmr, width: int = 64, height: int = 32) -> str:
    """Map plus the PMR quadtree's leaf-block boundaries."""
    segments = [
        pmr.ctx.segments.peek(i) for i in range(len(pmr.ctx.segments))
    ]
    rects = [b.rect(pmr.world_size) for b in pmr.leaf_blocks()]
    return render_segments(
        segments, pmr.world_size, width, height, overlay_rects=rects
    )


def render_rtree_leaves(tree, world_size: float, width: int = 64, height: int = 32) -> str:
    """Map plus the R-tree's leaf-node MBRs (Figure 2b style)."""
    segments = [
        tree.ctx.segments.peek(i) for i in range(len(tree.ctx.segments))
    ]
    rects = []
    stack = [tree.root_id]
    while stack:
        node = tree.ctx.disk.peek(stack.pop())
        if node.is_leaf:
            if node.entries:
                rects.append(Rect.union_of(r for r, _ in node.entries))
        else:
            stack.extend(child for _, child in node.entries)
    return render_segments(
        segments, world_size, width, height, overlay_rects=rects
    )
