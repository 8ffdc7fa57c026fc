#!/usr/bin/env python3
"""Gallery: how each structure carves up the same map (Figure 1-5 style).

Renders a small county as ASCII art, then overlays the decompositions of
the paper's three structures: the PMR quadtree's blocks, the R+-tree's
leaves and the R*-tree's leaf MBRs — the pictures behind the paper's
Figures 1, 2 and 5. Also shows STR bulk loading producing a tidier
R-tree than dynamic insertion.

Run:  python examples/decomposition_gallery.py
"""

from repro import PMRQuadtree, RPlusTree, RStarTree, StorageContext, generate_county
from repro.core.rtree import bulk_load_str
from repro.viz import render_pmr_blocks, render_rtree_leaves


def build(cls, segments, **kw):
    ctx = StorageContext.create()
    index = cls(ctx, **kw)
    for seg_id in ctx.load_segments(segments):
        index.insert(seg_id)
    return index


def main() -> None:
    county = generate_county("cecil", scale=0.01)
    print(f"{county.name}: {len(county)} segments\n")

    pmr = build(PMRQuadtree, county.segments, threshold=4)
    print(f"PMR quadtree (threshold 4): {len(pmr.leaf_blocks())} buckets, "
          f"depth {pmr.depth()}")
    print(render_pmr_blocks(pmr, width=72, height=30))

    rplus = build(RPlusTree, county.segments)
    print(f"\nR+-tree: {rplus.page_count()} pages, "
          f"leaf occupancy {rplus.leaf_occupancy():.1f}/{rplus.capacity}")
    print(render_rtree_leaves(rplus, county.world_size, width=72, height=30))

    rstar = build(RStarTree, county.segments)
    print(f"\nR*-tree (dynamic build): {rstar.page_count()} pages, "
          f"leaf occupancy {rstar.leaf_occupancy():.1f}/{rstar.capacity}")
    print(render_rtree_leaves(rstar, county.world_size, width=72, height=30))

    ctx = StorageContext.create()
    packed = RStarTree(ctx)
    bulk_load_str(packed, ctx.load_segments(county.segments))
    print(f"\nR*-tree (STR bulk load): {packed.page_count()} pages, "
          f"leaf occupancy {packed.leaf_occupancy():.1f}/{packed.capacity}")
    print(render_rtree_leaves(packed, county.world_size, width=72, height=30))


if __name__ == "__main__":
    main()
