"""The PM1 quadtree (Samet & Webber), the strictest member of the PM
family the paper's PMR quadtree belongs to.

Section 3 places the PMR inside "a family of data structures that
adaptively sort the line segments into buckets of varying size"; the PM
quadtrees are the vertex-based end of that family. A PM1 leaf block must
satisfy:

1. it contains at most one vertex (segment endpoint);
2. if it contains a vertex, every q-edge in the block is incident at
   that vertex;
3. if it contains no vertex, it holds at most one q-edge.

Unlike the PMR's probabilistic split-once rule, a violating PM1 block is
split *recursively* until the criteria hold (or the maximum depth is
reached, where violations are tolerated -- the pixel grid cannot resolve
further). This is exactly the pathological behaviour the PMR's rule was
invented to avoid: a pair of nearly-touching parallel segments forces
the PM1 to decompose all the way down, while the PMR splits once per
insertion. The ``pm_family`` ablation benchmark measures that contrast.

Storage, queries, and metrics are inherited unchanged from
:class:`~repro.core.pmr.pmr.PMRQuadtree` (the same linear quadtree in
the same paged B-tree), so comparisons between the two isolate the
decomposition rule alone.
"""

from __future__ import annotations

from typing import Any, Callable, List, Set

from repro.core.interface import WORLD_DEPTH, WORLD_SIZE, SpatialIndex
from repro.core.pmr.blocks import PMRBlock
from repro.core.pmr.pmr import PMRQuadtree
from repro.geometry import Point, Segment
from repro.storage.context import StorageContext


class PM1Quadtree(PMRQuadtree):
    name = "PM1"
    # The constructor takes no threshold or curve, so the PMR's params()
    # do not rebuild it: the PM family keeps no snapshots.
    params = SpatialIndex.params
    state = SpatialIndex.state

    def __init__(
        self,
        ctx: StorageContext,
        max_depth: int = WORLD_DEPTH,
        world_size: int = WORLD_SIZE,
    ) -> None:
        # The PM1 has no splitting threshold; the inherited machinery
        # only uses it inside the hooks overridden below.
        super().__init__(
            ctx, threshold=1, max_depth=max_depth, world_size=world_size
        )

    # ------------------------------------------------------------------
    # Decomposition criteria
    # ------------------------------------------------------------------
    def block_is_legal(
        self, block: PMRBlock, seg_ids: List[int], fetch: Callable[[int], Segment]
    ) -> bool:
        """Check the three PM1 criteria for a block holding ``seg_ids``.

        Maintenance reads the geometry through the segment table's
        ``fetch``, so deciding a split is charged segment comparisons
        exactly as a disk-resident implementation would pay them; the
        fsck passes the uncounted ``peek``.
        """
        if len(seg_ids) <= 1:
            return True
        rect = self.rect_of(block)

        def vertex_inside(p: Point) -> bool:
            # Half-open pixel domain: each vertex belongs to one block.
            return (
                rect.xmin <= p.x < rect.xmax and rect.ymin <= p.y < rect.ymax
            )

        vertices: Set[Point] = set()
        segments = []
        for seg_id in seg_ids:
            seg = fetch(seg_id)
            segments.append(seg)
            for p in seg.endpoints():
                if vertex_inside(p):
                    vertices.add(p)

        if len(vertices) > 1:
            return False
        if not vertices:
            return len(segments) <= 1
        (v,) = vertices
        return all(s.has_endpoint(v) for s in segments)

    # ------------------------------------------------------------------
    # Hook overrides
    # ------------------------------------------------------------------
    def _resolve_overflow(self, block: PMRBlock) -> None:
        """Split recursively until every descendant is legal."""
        if not block.is_leaf or block.depth >= self.max_depth:
            return
        seg_ids = [
            self.seg_id_of(v) for v in self.btree.scan_eq(self.code_of(block))
        ]
        if self.block_is_legal(block, seg_ids, self.ctx.segments.fetch):
            return
        self._split_block(block)
        for child in block.children:
            self._resolve_overflow(child)

    def _should_merge(self, block: PMRBlock, distinct: Set[Any]) -> bool:
        """Merge when the reunited block would satisfy the PM1 criteria."""
        seg_ids = sorted(self.seg_id_of(v) for v in distinct)
        return self.block_is_legal(block, seg_ids, self.ctx.segments.fetch)
