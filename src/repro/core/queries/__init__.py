"""The five queries of Section 5, written once against the
:class:`~repro.core.interface.SpatialIndex` interface. Each is a
:class:`QuerySpec` run through :func:`execute_spec`:

1. ``QuerySpec.point`` -- all segments incident at an endpoint.
2. ``QuerySpec.other_endpoint`` -- incidences at a segment's other
   endpoint.
3. ``QuerySpec.nearest`` (and the incremental :func:`iter_nearest`) --
   the nearest segment(s) to a point, Euclidean metric.
4. ``QuerySpec.polygon`` -- the minimal polygon enclosing a point.
5. ``QuerySpec.window`` -- all segments meeting a rectangular window.
"""

from repro.core.queries.join import brute_force_join, quadtree_join, rtree_join
from repro.core.queries.nearest import iter_nearest, nearest_segment_to_segment
from repro.core.queries.polygon import PolygonResult
from repro.core.queries.spec import QuerySpec, execute_spec

__all__ = [
    "PolygonResult",
    "QuerySpec",
    "brute_force_join",
    "execute_spec",
    "iter_nearest",
    "nearest_segment_to_segment",
    "quadtree_join",
    "rtree_join",
]
