"""The paper's subjects: three disk-resident spatial indexes and the query
algorithms that run over them.

* :class:`~repro.core.rtree.RStarTree` -- the R*-tree of Beckmann et al.
* :class:`~repro.core.rplus.RPlusTree` -- the paper's hybrid R+-tree /
  k-d-B-tree with disjoint non-leaf regions.
* :class:`~repro.core.pmr.PMRQuadtree` -- the edge-based PMR quadtree
  stored as a linear quadtree in a paged B-tree.
* :class:`~repro.core.rtree.GuttmanRTree` -- the original R-tree (the
  R*-tree's base class, kept as a baseline for the split-policy ablation).
* :mod:`~repro.core.queries` -- the five queries of Section 5.

:data:`STRUCTURES` is the one name -> class table: harness, snapshots,
shard sets, the CLI's ``--structure`` and the tests all read it, and
every row can be snapshotted and served. What a class is -- its
parameters, navigational state, page inventory, world and search loops
-- it declares itself (:class:`~repro.core.interface.SpatialIndex`);
whether an instance is healthy is :func:`repro.analysis.check_index`'s
to say.
"""

from typing import Dict, Type

from repro.core.interface import NNItem, SpatialIndex
from repro.core.pmr import PMRQuadtree
from repro.core.rplus import RPlusTree
from repro.core.rtree import GuttmanRTree, RStarTree

#: Every structure by its table name (a snapshot manifest's ``kind``).
#: The PMR threshold of 4 follows the paper's road-network argument
#: (more than 4 roads rarely meet at a point); R-tree m = 40 % of M
#: follows the R*-tree authors: both are the constructors' defaults.
STRUCTURES: Dict[str, Type[SpatialIndex]] = {
    cls.name: cls for cls in (RStarTree, RPlusTree, PMRQuadtree, GuttmanRTree)
}

__all__ = [
    "GuttmanRTree",
    "NNItem",
    "PMRQuadtree",
    "RPlusTree",
    "RStarTree",
    "STRUCTURES",
    "SpatialIndex",
]
