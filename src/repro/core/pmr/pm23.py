"""The PM2 and PM3 quadtrees: the rest of the vertex-based PM family.

Relaxations of the PM1 criteria (see :mod:`repro.core.pmr.pm1`):

* **PM2**: a block may hold any number of q-edges provided they all meet
  at one common vertex -- which, unlike PM1, may lie *outside* the
  block. High-degree vertices no longer force deep decomposition around
  their incident edges.
* **PM3**: only the vertex criterion remains -- at most one vertex per
  block; q-edges passing through are unrestricted.

Decomposition granularity is therefore PM1 >= PM2 >= PM3 on any map,
which the tests assert, and all three stand in contrast to the PMR's
probabilistic rule that bounds bucket occupancy without geometric
criteria at all.
"""

from __future__ import annotations

from typing import Callable, List, Set

from repro.core.pmr.blocks import PMRBlock
from repro.core.pmr.pm1 import PM1Quadtree
from repro.geometry import Point, Segment


class PM2Quadtree(PM1Quadtree):
    name = "PM2"

    def block_is_legal(
        self, block: PMRBlock, seg_ids: List[int], fetch: Callable[[int], Segment]
    ) -> bool:
        if len(seg_ids) <= 1:
            return True
        rect = self.rect_of(block)

        vertices: Set[Point] = set()
        segments = []
        for seg_id in seg_ids:
            seg = fetch(seg_id)
            segments.append(seg)
            for p in seg.endpoints():
                if rect.xmin <= p.x < rect.xmax and rect.ymin <= p.y < rect.ymax:
                    vertices.add(p)

        if len(vertices) > 1:
            return False
        if len(vertices) == 1:
            (v,) = vertices
            return all(s.has_endpoint(v) for s in segments)
        # No vertex inside: legal iff all q-edges share a common endpoint
        # anywhere (they are fragments of a fan around one vertex).
        first = segments[0]
        for shared in first.endpoints():
            if all(s.has_endpoint(shared) for s in segments[1:]):
                return True
        return False


class PM3Quadtree(PM1Quadtree):
    name = "PM3"

    def block_is_legal(
        self, block: PMRBlock, seg_ids: List[int], fetch: Callable[[int], Segment]
    ) -> bool:
        if len(seg_ids) <= 1:
            return True
        rect = self.rect_of(block)
        vertices: Set[Point] = set()
        for seg_id in seg_ids:
            seg = fetch(seg_id)
            for p in seg.endpoints():
                if rect.xmin <= p.x < rect.xmax and rect.ymin <= p.y < rect.ymax:
                    vertices.add(p)
                    if len(vertices) > 1:
                        return False
        return True
