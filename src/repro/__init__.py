"""repro -- a reproduction of Hoel & Samet, "A Qualitative Comparison
Study of Data Structures for Large Line Segment Databases" (SIGMOD 1992).

The package implements, from scratch, the three disk-resident spatial
indexes the paper compares (the R*-tree, the hybrid R+-tree, and the PMR
quadtree stored as a linear quadtree in a paged B-tree), the storage
substrate whose buffer-pool misses are the paper's "disk accesses", the
five spatial queries of the study, a synthetic TIGER-like map generator,
and a harness that regenerates every table and figure of the evaluation.

Quickstart::

    from repro import (
        PMRQuadtree, QuerySpec, Rect, StorageContext, execute_spec,
        generate_county,
    )

    county = generate_county("baltimore", scale=0.05)
    ctx = StorageContext.create()          # 1 KiB pages, 16-page LRU pool
    index = PMRQuadtree(ctx)               # or RStarTree / RPlusTree
    for seg_id in ctx.load_segments(county.segments):
        index.insert(seg_id)

    spec = QuerySpec.window(Rect(1000, 1000, 1160, 1160))
    hits = execute_spec(index, spec)       # the one traversal path
    print(ctx.counters.disk_accesses, "potential disk accesses")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    GuttmanRTree,
    KDBTree,
    NNItem,
    PM1Quadtree,
    PM2Quadtree,
    PM3Quadtree,
    PMRQuadtree,
    RPlusTree,
    RStarTree,
    SpatialIndex,
    TrueRPlusTree,
    UniformGrid,
)
from repro.core.interface import WORLD_DEPTH, WORLD_SIZE
from repro.core.backends import ScalarBackend, resolve_backend
from repro.core.queries import (
    PolygonResult,
    QuerySpec,
    execute_spec,
    iter_nearest,
)
from repro.data import (
    COUNTY_NAMES,
    MapData,
    generate_county,
    generate_map,
    normalize_segments,
)
from repro.errors import (
    CodecError,
    NotDurableError,
    ProtocolError,
    ReproError,
    SnapshotError,
    WalError,
)
from repro.geometry import Point, Rect, Segment
from repro.storage import BufferPool, DiskManager, MetricsCounters, StorageContext

__version__ = "1.0.0"

__all__ = [
    "BufferPool",
    "COUNTY_NAMES",
    "CodecError",
    "DiskManager",
    "GuttmanRTree",
    "KDBTree",
    "MapData",
    "MetricsCounters",
    "NNItem",
    "NotDurableError",
    "PM1Quadtree",
    "PM2Quadtree",
    "PM3Quadtree",
    "PMRQuadtree",
    "Point",
    "PolygonResult",
    "QuerySpec",
    "ProtocolError",
    "RPlusTree",
    "RStarTree",
    "Rect",
    "ReproError",
    "Segment",
    "SnapshotError",
    "SpatialIndex",
    "StorageContext",
    "WalError",
    "TrueRPlusTree",
    "UniformGrid",
    "WORLD_DEPTH",
    "WORLD_SIZE",
    "ScalarBackend",
    "execute_spec",
    "generate_county",
    "generate_map",
    "iter_nearest",
    "normalize_segments",
    "resolve_backend",
    "__version__",
]
