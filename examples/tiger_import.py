#!/usr/bin/env python3
"""The real-data path: TIGER/Line Record Type 1 -> normalized map -> index.

The paper's data is the Bureau of the Census TIGER/Line files. This
example round-trips a small synthetic chain file through the Type 1
reader, normalizes it to the paper's 16K x 16K grid, and answers queries
-- exactly the pipeline you would run on a real ``*.rt1`` file:

    segments = read_type1("TGR24017.RT1")       # Charles county, MD
    grid = normalize_segments(segments)
    ...

Run:  python examples/tiger_import.py
"""

import tempfile
from pathlib import Path

from repro import (
    Point,
    QuerySpec,
    RStarTree,
    StorageContext,
    execute_spec,
    normalize_segments,
)
from repro.data import read_type1, write_type1
from repro.geometry import Segment


def fake_county_chains():
    """A tiny road network in real lon/lat around La Plata, MD."""
    lon0, lat0 = -76.975, 38.529
    chains = []
    # A 6x6 street grid, 0.005 degrees apart, written as chains.
    for i in range(6):
        for j in range(6):
            x, y = lon0 + i * 0.005, lat0 + j * 0.005
            if i < 5:
                chains.append(Segment(x, y, x + 0.005, y))
            if j < 5:
                chains.append(Segment(x, y, x, y + 0.005))
    return chains


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "TGR00000.RT1"
        count = write_type1(path, fake_county_chains(), cfcc="A41")
        print(f"wrote {count} Type 1 records to {path.name}")

        # --- the pipeline a real TIGER file goes through ---------------
        raw = read_type1(path)
        print(f"read back {len(raw)} chains (lon/lat degrees)")

        segments = normalize_segments(raw, world_size=16384)
        print(f"normalized to the 16K x 16K grid: {len(segments)} segments")

        ctx = StorageContext.create()
        index = RStarTree(ctx)
        for seg_id in ctx.load_segments(segments):
            index.insert(seg_id)
        print(f"indexed into an R*-tree of {index.page_count()} pages")

        # Queries run on grid coordinates after normalization.
        some_corner = segments[0].start
        incident = execute_spec(index, QuerySpec.point(Point(*some_corner)))
        print(f"\nsegments incident at {some_corner}: {incident}")

        center = Point(8192, 8192)
        seg_id, dist2 = execute_spec(index, QuerySpec.nearest(center))[0]
        print(f"nearest segment to the map centre: id={seg_id}, "
              f"distance={dist2 ** 0.5:.0f} pixels")
        print(f"\nmetrics: {ctx.counters.disk_accesses} disk accesses, "
              f"{ctx.counters.segment_comps} segment comparisons")


if __name__ == "__main__":
    main()
