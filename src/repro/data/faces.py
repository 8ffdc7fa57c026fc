"""Complete face extraction from a polygonal map.

Query 4 walks *one* face around a query point; this module enumerates
**every** face of the planar subdivision in one pass -- turning a road
network into its city blocks / parcels, the classic GIS polygonization.

The walk uses the same rotation rule as the enclosing-polygon query (at
vertex ``v``, arriving from ``u``, continue along the incident edge with
the smallest strictly-positive clockwise angle from the direction back to
``u``), so each directed half-edge belongs to exactly one face and every
face is traced exactly once. Dead-end (bridge) edges appear twice in
their face, as in any DCEL.

Correctness is pinned by Euler's formula: a planar multigraph with ``V``
vertices, ``E`` edges, and ``C`` connected components has
``F = 2C + E - V`` faces counting one unbounded face per component --
exactly the number of cycles the walk produces. The test suite asserts
this identity on every generated county.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.geometry import Point, Segment
from repro.geometry.predicates import pseudo_angle


@dataclass
class Face:
    """One face: its boundary edges in walk order and its vertex cycle."""

    seg_ids: List[int]
    vertices: List[Point]
    signed_area2: float

    @property
    def size(self) -> int:
        return len(self.seg_ids)

    @property
    def is_outer(self) -> bool:
        """Outer faces come back clockwise (non-positive shoelace area)."""
        return self.signed_area2 <= 0

    def area(self) -> float:
        return abs(self.signed_area2) / 2.0


@dataclass
class FaceSet:
    faces: List[Face]
    vertices: int
    edges: int
    components: int

    def inner_faces(self) -> List[Face]:
        return [f for f in self.faces if not f.is_outer]

    def average_inner_size(self) -> float:
        inner = self.inner_faces()
        return sum(f.size for f in inner) / len(inner) if inner else 0.0

    def euler_consistent(self) -> bool:
        """F == 2C + E - V for a planar multigraph (one outer face per
        connected component)."""
        return len(self.faces) == 2 * self.components + self.edges - self.vertices


def extract_faces(segments: Sequence[Segment]) -> FaceSet:
    """Trace every face of a noded planar map.

    Input must be noded (segments meet only at shared endpoints);
    behaviour on non-planar input is undefined (use
    ``MapData.planarity_violations`` first when in doubt).
    """
    # Adjacency: vertex -> list of (neighbour, seg_id), sorted by angle.
    adjacency: Dict[Point, List[Tuple[Point, int]]] = {}
    for i, s in enumerate(segments):
        if s.is_degenerate():
            continue
        adjacency.setdefault(s.start, []).append((s.end, i))
        adjacency.setdefault(s.end, []).append((s.start, i))

    for v, nbrs in adjacency.items():
        nbrs.sort(key=lambda nb: pseudo_angle(nb[0].x - v.x, nb[0].y - v.y))

    # Connected components over vertices (union-find).
    parent: Dict[Point, Point] = {v: v for v in adjacency}

    def find(x: Point) -> Point:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in segments:
        if s.is_degenerate():
            continue
        ra, rb = find(s.start), find(s.end)
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in adjacency})

    # next() for the face walk: at v coming from u, take the neighbour
    # with the smallest strictly-positive clockwise turn from v->u.
    def next_edge(u: Point, v: Point) -> Tuple[Point, int]:
        back = pseudo_angle(u.x - v.x, u.y - v.y)
        best = None
        best_turn = 5.0
        for w, sid in adjacency[v]:
            turn = (back - pseudo_angle(w.x - v.x, w.y - v.y)) % 4.0
            if turn == 0.0:
                turn = 4.0  # the reverse edge: a dead end costs a full turn
            if turn < best_turn or (turn == best_turn and sid < best[1]):
                best_turn = turn
                best = (w, sid)
        return best

    visited = set()  # directed half-edges (u, v, seg_id)
    faces: List[Face] = []
    edge_count = sum(1 for s in segments if not s.is_degenerate())

    for i, s in enumerate(segments):
        if s.is_degenerate():
            continue
        for (u, v) in ((s.start, s.end), (s.end, s.start)):
            if (u, v, i) in visited:
                continue
            seg_ids: List[int] = []
            verts: List[Point] = [u]
            area2 = 0.0
            cu, cv, sid = u, v, i
            while (cu, cv, sid) not in visited:
                visited.add((cu, cv, sid))
                seg_ids.append(sid)
                verts.append(cv)
                area2 += cu.x * cv.y - cv.x * cu.y
                w, nsid = next_edge(cu, cv)
                cu, cv, sid = cv, w, nsid
            faces.append(Face(seg_ids, verts, area2))

    return FaceSet(
        faces=faces,
        vertices=len(adjacency),
        edges=edge_count,
        components=components,
    )
