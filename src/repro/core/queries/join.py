"""Spatial intersection join (map overlay, Section 7).

The paper's concluding remarks argue that for composing operations over
*different* maps -- "such as overlay of maps of different types" -- the
PMR quadtree beats the R+-tree because "the decomposition lines are
always in the same positions": two quadtrees over the same world are
block-aligned, so an overlay is one synchronized walk. The paper never
measures this; the ``overlay_join`` benchmark does, using the two join
algorithms here.

* :func:`rtree_join` -- the classic synchronized R-tree join (Brinkhoff,
  Kriegel & Seeger): descend pairs of nodes whose MBRs intersect.
  Works on any two R-tree variants (Guttman or R*).
* :func:`quadtree_join` -- the aligned quadtree join: walk both block
  directories in lockstep; block pairs are either identical regions or
  ancestor/descendant, never partially overlapping, so no rectangle
  intersection tests are needed above the bucket level.

Both return the set of ``(seg_id_a, seg_id_b)`` pairs whose segments
intersect, verified against actual geometry (each fetch is a segment
comparison on its own structure's counters).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.pmr.blocks import PMRBlock
from repro.core.pmr.pmr import PMRQuadtree
from repro.core.rtree.node import RTreeNode
from repro.core.rtree.rtree import GuttmanRTree
from repro.geometry import Segment
from repro.geometry.predicates import segments_intersect

Pair = Tuple[int, int]


def _verify_pair(
    a: GuttmanRTree, b, sid_a: int, sid_b: int, cache_a: Dict, cache_b: Dict
) -> bool:
    seg_a = cache_a.get(sid_a)
    if seg_a is None:
        seg_a = cache_a[sid_a] = a.ctx.segments.fetch(sid_a)
    seg_b = cache_b.get(sid_b)
    if seg_b is None:
        seg_b = cache_b[sid_b] = b.ctx.segments.fetch(sid_b)
    return segments_intersect(seg_a.start, seg_a.end, seg_b.start, seg_b.end)


def rtree_join(a: GuttmanRTree, b: GuttmanRTree) -> Set[Pair]:
    """Synchronized descent over two R-trees.

    Node pairs with intersecting MBRs are expanded together; when the
    trees have different heights the deeper side keeps descending alone.
    Every rectangle pair examined charges one bounding box computation to
    *each* structure (both nodes are in memory for the test).
    """
    results: Set[Pair] = set()
    cache_a: Dict[int, Segment] = {}
    cache_b: Dict[int, Segment] = {}

    # (page_a, page_b) pairs; read both nodes through their own pools.
    stack: List[Tuple[int, int]] = [(a.root_id, b.root_id)]
    while stack:
        pa, pb = stack.pop()
        na: RTreeNode = a.ctx.pool.get(pa)
        nb: RTreeNode = b.ctx.pool.get(pb)
        pairs_tested = 0

        if na.is_leaf and nb.is_leaf:
            for ra, sid_a in na.entries:
                for rb, sid_b in nb.entries:
                    pairs_tested += 1
                    if ra.intersects(rb) and _verify_pair(
                        a, b, sid_a, sid_b, cache_a, cache_b
                    ):
                        results.add((sid_a, sid_b))
        elif nb.is_leaf or (not na.is_leaf and len(na.entries) >= len(nb.entries)):
            # Expand a's side against all of b's entries.
            for ra, child_a in na.entries:
                for rb, _ in nb.entries:
                    pairs_tested += 1
                if any(ra.intersects(rb) for rb, _ in nb.entries):
                    stack.append((child_a, pb))
        else:
            for rb, child_b in nb.entries:
                for ra, _ in na.entries:
                    pairs_tested += 1
                if any(ra.intersects(rb) for ra, _ in na.entries):
                    stack.append((pa, child_b))

        a.ctx.counters.bbox_comps += pairs_tested
        b.ctx.counters.bbox_comps += pairs_tested
    return results


def quadtree_join(a: PMRQuadtree, b: PMRQuadtree) -> Set[Pair]:
    """Aligned overlay of two PMR (or PM) quadtrees over the same world.

    Raises ``ValueError`` when the worlds differ (alignment is the whole
    point). Bucket computations are charged per bucket whose contents
    are read, exactly as in the single-map queries.
    """
    if a.world_size != b.world_size or a.max_depth != b.max_depth:
        raise ValueError("quadtree_join requires identical world decompositions")

    results: Set[Pair] = set()
    cache_a: Dict[int, Segment] = {}
    cache_b: Dict[int, Segment] = {}

    def leaf_values(tree: PMRQuadtree, block: PMRBlock) -> List[int]:
        tree.ctx.counters.bbox_comps += 1
        return [tree.seg_id_of(v) for v in tree.btree.scan_eq(tree.code_of(block))]

    def _cross(first: List[int], second: List[int], first_is_a: bool) -> None:
        for f in first:
            for s in second:
                pair = (f, s) if first_is_a else (s, f)
                if pair in results:
                    continue
                if _verify_pair(a, b, pair[0], pair[1], cache_a, cache_b):
                    results.add(pair)

    def join_leaf_subtree(
        leaf_ids: List[int],
        other_tree: PMRQuadtree,
        other_block: PMRBlock,
        leaf_is_a: bool,
    ) -> None:
        """Cross one leaf's contents with every bucket under a subtree."""
        if not leaf_ids:
            return
        if other_block.children is not None:
            for child in other_block.children:
                join_leaf_subtree(leaf_ids, other_tree, child, leaf_is_a)
            return
        other_ids = leaf_values(other_tree, other_block)
        _cross(leaf_ids, other_ids, first_is_a=leaf_is_a)

    def walk(block_a: PMRBlock, block_b: PMRBlock) -> None:
        a_leaf = block_a.children is None
        b_leaf = block_b.children is None
        if a_leaf and b_leaf:
            ids_a = leaf_values(a, block_a)
            if not ids_a:
                return
            _cross(ids_a, leaf_values(b, block_b), first_is_a=True)
        elif a_leaf:
            ids_a = leaf_values(a, block_a)
            join_leaf_subtree(ids_a, b, block_b, leaf_is_a=True)
        elif b_leaf:
            ids_b = leaf_values(b, block_b)
            join_leaf_subtree(ids_b, a, block_a, leaf_is_a=False)
        else:
            for ca, cb in zip(block_a.children, block_b.children):
                walk(ca, cb)

    walk(a.root, b.root)
    return results


def brute_force_join(
    segments_a: List[Segment], segments_b: List[Segment]
) -> Set[Pair]:
    """O(n x m) oracle for the tests."""
    out: Set[Pair] = set()
    for i, sa in enumerate(segments_a):
        for j, sb in enumerate(segments_b):
            if segments_intersect(sa.start, sa.end, sb.start, sb.end):
                out.add((i, j))
    return out