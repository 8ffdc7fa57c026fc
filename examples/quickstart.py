#!/usr/bin/env python3
"""Quickstart: index a road map and run all five queries of the paper.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    PMRQuadtree,
    Point,
    QuerySpec,
    Rect,
    StorageContext,
    execute_spec,
    generate_county,
)


def main() -> None:
    # A synthetic Baltimore-like county at 5 % of the paper's size.
    county = generate_county("baltimore", scale=0.05)
    print(f"generated {len(county)} road segments for {county.name!r}")

    # Each structure owns a storage stack: 1 KiB pages, 16-page LRU pool,
    # and the disk-resident segment table every query is charged against.
    ctx = StorageContext.create(page_size=1024, pool_pages=16)
    index = PMRQuadtree(ctx, threshold=4)  # the paper's configuration

    for seg_id in ctx.load_segments(county.segments):
        index.insert(seg_id)
    print(
        f"built a PMR quadtree: {index.page_count()} pages, "
        f"{index.entry_count()} q-edge entries, "
        f"{len(index.leaf_blocks())} buckets"
    )

    rng = random.Random(7)
    seg_id = rng.randrange(len(county.segments))
    endpoint = county.segments[seg_id].start

    # Query 1: who meets this road at this intersection?
    incident = execute_spec(index, QuerySpec.point(endpoint))
    print(f"\nQ1  segments incident at {endpoint}: {incident}")

    # Query 2: who meets it at the *other* end?
    other, at_other = execute_spec(index, QuerySpec.other_endpoint(endpoint, seg_id))
    print(f"Q2  other endpoint {other} touches segments {at_other}")

    # Query 3: nearest road to an arbitrary point.
    p = Point(8000, 8000)
    nearest = execute_spec(index, QuerySpec.nearest(p))[0]
    print(f"Q3  nearest segment to {p}: id={nearest[0]}, dist={nearest[1] ** 0.5:.1f}")

    # Query 4: the city block (polygon) containing that point.
    polygon = execute_spec(index, QuerySpec.polygon(p))
    kind = "outer face" if polygon.is_outer else "polygon"
    print(f"Q4  enclosing {kind} has {polygon.size} edges")

    # Query 5: everything in a 0.01 %-of-the-map window.
    window = Rect(7900, 7900, 8400, 8400)
    hits = execute_spec(index, QuerySpec.window(window))
    print(f"Q5  window {window} contains {len(hits)} segments")

    # The paper's three metrics, accumulated over everything above.
    c = ctx.counters
    print(
        f"\nmetrics: {c.disk_accesses} potential disk accesses, "
        f"{c.segment_comps} segment comparisons, "
        f"{c.bbox_comps} bucket computations"
    )


if __name__ == "__main__":
    main()
