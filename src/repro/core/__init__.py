"""The paper's subjects: three disk-resident spatial indexes and the query
algorithms that run over them.

* :class:`~repro.core.rtree.RStarTree` -- the R*-tree of Beckmann et al.
* :class:`~repro.core.rplus.RPlusTree` -- the paper's hybrid R+-tree /
  k-d-B-tree with disjoint non-leaf regions.
* :class:`~repro.core.pmr.PMRQuadtree` -- the edge-based PMR quadtree
  stored as a linear quadtree in a paged B-tree.
* :class:`~repro.core.rtree.GuttmanRTree` -- the original R-tree (kept as a
  baseline for the split-policy ablation).
* :class:`~repro.core.kdb.KDBTree` -- the pure k-d-B-tree variant the
  paper contrasts with its hybrid (Section 3).
* :class:`~repro.core.grid.UniformGrid` -- the Section 2 uniform grid.
* :mod:`~repro.core.queries` -- the five queries of Section 5.

:data:`STRUCTURES` is the one name -> class table: harness, snapshots,
shard sets, the CLI's ``--structure`` and the tests all read it. What a
class is -- its parameters, navigational state, page inventory, world
and search loops -- it declares itself
(:class:`~repro.core.interface.SpatialIndex`); whether an instance is
healthy is :func:`repro.analysis.check_index`'s to say.
"""

from typing import Dict, Tuple, Type

from repro.core.grid import UniformGrid
from repro.core.interface import NNItem, SpatialIndex
from repro.core.kdb import KDBTree
from repro.core.pmr import PM1Quadtree, PM2Quadtree, PM3Quadtree, PMRQuadtree
from repro.core.rplus import RPlusTree
from repro.core.rtree import GuttmanRTree, RStarTree

#: Every structure by its table name (a snapshot manifest's ``kind``).
#: The PMR threshold of 4 follows the paper's road-network argument
#: (more than 4 roads rarely meet at a point); R-tree m = 40 % of M
#: follows the R*-tree authors: both are the constructors' defaults.
STRUCTURES: Dict[str, Type[SpatialIndex]] = {
    cls.name: cls
    for cls in (
        RStarTree,
        RPlusTree,
        PMRQuadtree,
        GuttmanRTree,
        KDBTree,
        UniformGrid,
        PM1Quadtree,
        PM2Quadtree,
        PM3Quadtree,
    )
}

#: The rows a snapshot can hold -- hence a server, a durable store or a
#: shard set can serve: those whose class declares its navigational state.
SERVABLE: Tuple[str, ...] = tuple(
    name for name, cls in STRUCTURES.items() if cls.state is not SpatialIndex.state
)

__all__ = [
    "GuttmanRTree",
    "KDBTree",
    "NNItem",
    "PM1Quadtree",
    "PM2Quadtree",
    "PM3Quadtree",
    "PMRQuadtree",
    "RPlusTree",
    "RStarTree",
    "SERVABLE",
    "STRUCTURES",
    "SpatialIndex",
    "UniformGrid",
]
