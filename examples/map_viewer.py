#!/usr/bin/env python3
"""Scenario: a map-viewer backend serving pan/zoom viewport queries.

A GIS viewer fetches, for every repaint, the road segments intersecting
the current viewport -- exactly the paper's window query. Panning moves
the viewport by a fraction of its width, so consecutive queries overlap:
the buffer pool, not the index alone, decides how many disk reads a
repaint costs. This example pans a viewport across a county at three
zoom levels and reports disk reads per repaint for each structure.
"""

from repro import (
    PMRQuadtree,
    QuerySpec,
    RPlusTree,
    RStarTree,
    Rect,
    StorageContext,
    execute_spec,
    generate_county,
)


def build(cls, segments):
    ctx = StorageContext.create()
    index = cls(ctx)
    for seg_id in ctx.load_segments(segments):
        index.insert(seg_id)
    return index


def pan_path(world: int, viewport: int, step_fraction: float = 0.4):
    """Viewports along a horizontal strip through the map centre."""
    step = max(1, int(viewport * step_fraction))
    y = (world - viewport) // 2
    x = 0
    while x + viewport <= world:
        yield Rect(x, y, x + viewport, y + viewport)
        x += step


def main() -> None:
    county = generate_county("baltimore", scale=0.05)
    print(f"map: {len(county)} segments ({county.name})\n")

    indexes = {
        "PMR": build(PMRQuadtree, county.segments),
        "R+": build(RPlusTree, county.segments),
        "R*": build(RStarTree, county.segments),
    }

    world = county.world_size
    for zoom, viewport in (("far", world // 4), ("mid", world // 8), ("near", world // 16)):
        print(f"zoom {zoom:4s} (viewport {viewport}px):")
        for name, index in indexes.items():
            ctx = index.ctx
            ctx.pool.clear()
            before = ctx.counters.snapshot()
            repaints = 0
            segments_drawn = 0
            for viewport_rect in pan_path(world, viewport):
                segments_drawn += len(
                    execute_spec(index, QuerySpec.window(viewport_rect))
                )
                repaints += 1
            delta = ctx.counters.since(before)
            print(
                f"   {name:4s}: {delta.disk_reads / repaints:7.1f} disk reads"
                f" per repaint over {repaints} repaints"
                f" ({segments_drawn} segments drawn in total)"
            )
        print()

    print(
        "Overlapping viewports reward compactness: the structure with the"
        " fewest pages keeps more of the strip resident between repaints."
    )


if __name__ == "__main__":
    main()
