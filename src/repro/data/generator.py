"""Synthetic TIGER-like road map generator.

Maps are **planar by construction**: all road vertices live on a jittered
square lattice, every segment joins two lattice-adjacent vertices, and the
jitter is bounded well below half the lattice pitch, so two segments can
only meet at a shared vertex -- exactly the noding discipline TIGER data
guarantees and that the enclosing-polygon query requires.

Three edge-selection modes provide the paper's county characters:

* ``urban`` -- nearly the full lattice inside one large dense core
  (city blocks of ~4-6 segments), thinning toward the edges;
* ``suburban`` -- several medium-density blobs over a moderate background;
* ``rural`` -- long meandering random-walk roads, some with a *tandem*
  partner one lattice cell away (the paper's road-and-stream pairs that
  bound very large skinny polygons), over a very sparse background.

Vertex degree never exceeds 4, matching the paper's observation that more
than 4 roads rarely meet at a point (the basis of its PMR threshold).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress, filterfalse, repeat
from operator import lt
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.pmr.locational import interleave
from repro.geometry import Point, Segment

_Edge = Tuple[Tuple[int, int], Tuple[int, int]]  # lattice vertices, ordered

#: Share of a full lattice's ~2n^2 edges each kind of county aims to use.
_FILL = {"urban": 0.75, "suburban": 0.55, "rural": 0.30}


@dataclass
class MapData:
    """A generated (or imported) polygonal map."""

    name: str
    segments: List[Segment]
    world_size: int = 16384

    def __len__(self) -> int:
        return len(self.segments)

    def endpoint_index(self) -> Dict[Point, List[int]]:
        """Map from endpoint to the ids (list positions) incident there."""
        out: Dict[Point, List[int]] = {}
        for i, s in enumerate(self.segments):
            out.setdefault(s.start, []).append(i)
            out.setdefault(s.end, []).append(i)
        return out

    def max_degree(self) -> int:
        return max((len(v) for v in self.endpoint_index().values()), default=0)

    def planarity_violations(self) -> "Set[Tuple[int, int]]":
        """Segment index pairs that cross anywhere except a shared
        endpoint. A noded (TIGER-style) map returns the empty set; the
        enclosing-polygon query requires it."""
        from repro.geometry.batch import batch_intersections

        return batch_intersections(
            self.segments, ignore_shared_endpoints=True
        )


#: Jitter bound as a fraction of the pitch; must stay below ~0.35 for
#: the planarity argument (disjoint lattice edges are >= 1 pitch apart,
#: each endpoint moves < jitter*pitch, so segments cannot touch).
_JITTER = 0.30


def _lattice_points(
    n: int, world_size: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """A jittered n x n lattice inside the world square: vertex ``(i, j)``
    is entry ``i * n + j``, its ``(x, y)`` on the integer grid."""
    pitch = world_size / (n + 1)
    # Vertex by vertex, row-major, x then y: (k + 1) * pitch plus a jitter
    # of rng.uniform(-_JITTER, _JITTER) * pitch. uniform(a, b) is
    # a + (b - a) * random(), so the draws come first, in one list.
    rand = rng.random
    draws = [rand() for _ in range(2 * n * n)]
    lo = -_JITTER
    span = _JITTER - lo
    offset = [(k + 1) * pitch for k in range(n)]
    xs = [
        round(offset[k // n] + (lo + span * r) * pitch)
        for k, r in enumerate(draws[0::2])
    ]
    ys = [
        round(offset[k % n] + (lo + span * r) * pitch)
        for k, r in enumerate(draws[1::2])
    ]
    top = world_size - 1
    for coords in (xs, ys):
        if min(coords) < 0 or max(coords) > top:
            coords[:] = [min(max(c, 0), top) for c in coords]
    return list(zip(xs, ys))


def _field_edges(
    n: int,
    blobs: List[Tuple[float, float, float, float]],
    background: float,
    rng: random.Random,
) -> Set[_Edge]:
    """The lattice edges one ``random()`` draw each keeps.

    The draws run vertex by vertex, row-major, the ``+i`` edge before the
    ``+j`` edge. Edge ``e`` is kept when its draw is below a smooth
    density field at e's midpoint: the max of Gaussian blobs
    ``(cx, cy, radius, peak)`` in unit coordinates over ``background``,
    capped at 1 (a cap a draw in [0, 1) never reaches, so it is not
    applied). A midpoint is ``((a + 2) / (2 (n + 1)), (b + 2) / (2 (n + 1)))``
    for the sums ``a`` of its endpoints' i and ``b`` of their j.
    """
    rand = rng.random
    exp = math.exp
    sums = range(2 * n - 1)
    denom = 2 * (n + 1)
    terms = [
        (
            peak,
            2 * radius * radius,
            [((a + 2) / denom - cx) ** 2 for a in sums],
            [((b + 2) / denom - cy) ** 2 for b in sums],
        )
        for cx, cy, radius, peak in blobs
    ]
    keep: Set[_Edge] = set()
    row = [(0, j) for j in range(n)]
    for i in range(n):
        if i + 1 < n:
            # The row's edges in draw order: +i edges (a = 2i + 1, b = 2j)
            # at even places, +j edges (a = 2i, b = 2j + 1) at odd ones.
            below = [(i + 1, j) for j in range(n)]
            edges: List[_Edge] = [None] * (2 * n - 1)  # type: ignore[list-item]
            edges[0::2] = zip(row, below)
            edges[1::2] = zip(row, row[1:])
            levels = []
            for peak, two_r2, du, dv in terms:
                level = [0.0] * (2 * n - 1)
                at = du[2 * i + 1]
                level[0::2] = [peak * exp(-(at + d) / two_r2) for d in dv[0::2]]
                at = du[2 * i]
                level[1::2] = [peak * exp(-(at + d) / two_r2) for d in dv[1::2]]
                levels.append(level)
        else:
            below = row
            edges = list(zip(row, row[1:]))
            levels = [
                [peak * exp(-(du[2 * i] + d) / two_r2) for d in dv[1::2]]
                for peak, two_r2, du, dv in terms
            ]
        draws = [rand() for _ in edges]
        field = map(max, repeat(background), *levels) if levels else repeat(background)
        keep.update(compress(edges, map(lt, draws, field)))
        row = below
    return keep


def _neighbours(i: int, j: int, last: int) -> List[Tuple[int, int]]:
    """Lattice neighbours of ``(i, j)`` in the order -i, +i, -j, +j."""
    out = []
    if i > 0:
        out.append((i - 1, j))
    if i < last:
        out.append((i + 1, j))
    if j > 0:
        out.append((i, j - 1))
    if j < last:
        out.append((i, j + 1))
    return out


def _random_walk(
    n: int, rng: random.Random, length: int, straightness: float = 0.75
) -> List[_Edge]:
    """A self-avoiding-ish meander: momentum-biased walk on the lattice.

    After the first step, a ``random()`` below ``straightness`` keeps the
    direction when the straight step stays on the lattice; every other
    step is ``rng.choice`` over :func:`_neighbours`.
    """
    rand = rng.random
    choice = rng.choice
    last = n - 1
    i, j = rng.randrange(n), rng.randrange(n)
    di = dj = 0
    edges: List[_Edge] = []
    for _ in range(length):
        if (di or dj) and rand() < straightness and (
            0 <= i + di <= last and 0 <= j + dj <= last
        ):
            ni, nj = i + di, j + dj
        else:
            ni, nj = choice(_neighbours(i, j, last))
        # An edge is ordered (lower vertex, upper vertex).
        if ni + nj > i + j:
            edges.append(((i, j), (ni, nj)))
        else:
            edges.append(((ni, nj), (i, j)))
        di, dj = ni - i, nj - j
        i, j = ni, nj
    return edges


def _tandem(edges: List[_Edge], n: int, offset: Tuple[int, int]) -> List[_Edge]:
    """The same path shifted by one lattice cell (a stream beside a road).

    The offset is (1, 0) or (0, 1) and an edge's upper vertex is its
    second, so only that vertex can leave the lattice.
    """
    di, dj = offset
    return [
        ((i1 + di, j1 + dj), (i2 + di, j2 + dj))
        for (i1, j1), (i2, j2) in edges
        if i2 + di < n and j2 + dj < n
    ]


def _open_edges(
    v: Tuple[int, int], last: int, selected: Set[_Edge]
) -> List[_Edge]:
    """The edges from ``v`` to its :func:`_neighbours` not yet selected."""
    i, j = v
    out = []
    if i > 0:
        out.append(((i - 1, j), v))
    if i < last:
        out.append((v, (i + 1, j)))
    if j > 0:
        out.append(((i, j - 1), v))
    if j < last:
        out.append((v, (i, j + 1)))
    return list(filterfalse(selected.__contains__, out))


#: Frontier block length: an insert walks ~len/_BLOCK blocks and moves
#: ~_BLOCK entries, instead of ~len/2 entries of one list.
_BLOCK = 4096


def _insert(blocks: List[list], k: int, item) -> None:
    """Insert ``item`` at position ``k`` of the concatenation of ``blocks``."""
    for b, block in enumerate(blocks):
        if k <= len(block):
            block.insert(k, item)
            if len(block) > 2 * _BLOCK:
                blocks[b : b + 1] = [block[:_BLOCK], block[_BLOCK:]]
            return
        k -= len(block)
    blocks.append([item])  # only when every block is empty: k == 0


def _grow_network(
    n: int, selected: Set[_Edge], need: int, rng: random.Random
) -> None:
    """Add ``need`` edges that extend or branch off the existing network.

    The frontier is a shuffled list that pops from its end and takes each
    new vertex's open edges at ``rng.randrange(len + 1)``; it is held in
    blocks of about :data:`_BLOCK` entries, which give the same sequence.
    """
    if need <= 0:
        return
    vertices = {v for e in selected for v in e}
    if not vertices:
        v = (rng.randrange(n), rng.randrange(n))
        vertices.add(v)
    last = n - 1
    frontier: List[_Edge] = []
    for v in vertices:
        frontier += _open_edges(v, last, selected)
    rng.shuffle(frontier)
    size = len(frontier)
    blocks = [frontier[k : k + _BLOCK] for k in range(0, size, _BLOCK)]
    randrange = rng.randrange
    added = 0
    while size and added < need:
        tail = blocks[-1]
        edge = tail.pop()
        if not tail:
            blocks.pop()
        size -= 1
        if edge in selected:
            continue
        selected.add(edge)
        added += 1
        for v in edge:
            if v not in vertices:
                vertices.add(v)
                for e in _open_edges(v, last, selected):
                    _insert(blocks, randrange(size + 1), e)
                    size += 1


@dataclass
class GeneratorSpec:
    """Parameters of one synthetic county."""

    kind: str  # "urban" | "suburban" | "rural"
    target_segments: int
    seed: int
    world_size: int = 16384
    blobs: List[Tuple[float, float, float, float]] = field(default_factory=list)
    background: float = 0.1
    walk_fraction: float = 0.0  # fraction of target drawn as meanders
    tandem_probability: float = 0.0
    diagonal_fraction: float = 0.0  # urban shortcut streets


def generate_map(name: str, spec: GeneratorSpec) -> MapData:
    """Generate a planar map of roughly ``spec.target_segments`` segments."""
    if spec.target_segments < 8:
        raise ValueError(f"target_segments too small: {spec.target_segments}")
    if spec.kind not in _FILL:
        raise ValueError(f"unknown kind {spec.kind!r}; choose from {sorted(_FILL)}")
    target = spec.target_segments

    # Lattice sized so that the field + walks can reach the target count:
    # a full n x n lattice has ~2n^2 edges; aim to use about `fill` of them.
    n = max(8, int(math.sqrt(target / (2 * _FILL[spec.kind]))))
    # The walks run until they have drawn walk_budget distinct edges, so
    # a budget past the lattice's 2n(n-1) edges would never be met.
    walk_budget = int(target * spec.walk_fraction)
    if spec.walk_fraction < 0 or walk_budget > 2 * n * (n - 1):
        raise ValueError(
            f"walk_fraction {spec.walk_fraction} asks for {walk_budget} walk "
            f"edges; the {n}x{n} lattice has {2 * n * (n - 1)}"
        )
    rng = random.Random(spec.seed)
    points = _lattice_points(n, spec.world_size, rng)

    selected: Set[_Edge] = set()

    while walk_budget > 0 and len(selected) < walk_budget:
        length = rng.randint(n, 3 * n)
        walk = _random_walk(n, rng, length)
        selected.update(walk)
        if walk and rng.random() < spec.tandem_probability:
            offset = rng.choice([(1, 0), (0, 1)])
            selected.update(_tandem(walk, n, offset))

    # One merge of a separate set, not an add per edge: the two leave the
    # set in different iteration orders, and _grow_network reads that one.
    selected.update(_field_edges(n, spec.blobs, spec.background, rng))

    # Trim or top up toward the target for comparable Table 1 rows.
    edges: Iterable[_Edge]
    if len(selected) > target:
        edges = sorted(selected)
        rng.shuffle(edges)
        del edges[target:]
    else:
        # Grow the road network from its own frontier (roads extend and
        # branch) rather than sprinkling isolated edges, which would
        # shred the large rural faces the profiles are calibrated for.
        # It adds at most the shortfall, so nothing is left to trim.
        _grow_network(n, selected, target - len(selected), rng)
        edges = selected

    # Emit in Z-order of the edge midpoint: TIGER files group the chains
    # of an area together, which gives the segment table the 2-d locality
    # the paper's measurements rely on ("since the segments are usually
    # in proximity, they will be stored close to each other"); Morton
    # order is the scan order that preserves that locality best. The
    # midpoint sums (i1 + i2, j1 + j2) of two lattice edges differ, so
    # the keys are distinct and fix the order whatever order ``edges``
    # is in.
    spread = [interleave(s, 0) for s in range(2 * n - 1)]
    order = sorted(
        [
            (spread[i1 + i2] | spread[j1 + j2] << 1, i1 * n + j1, i2 * n + j2)
            for (i1, j1), (i2, j2) in edges
        ]
    )
    new = tuple.__new__
    # Drop any degenerate segments produced by extreme jitter collisions.
    segments = [
        new(Segment, points[a] + points[b])
        for _, a, b in order
        if points[a] != points[b]
    ]

    # Urban shortcut streets: diagonals across otherwise-empty cells. A
    # diagonal of a lattice cell can only meet cell-boundary segments at
    # its endpoints, so planarity is preserved.
    if spec.diagonal_fraction > 0:
        kept = set(edges)
        want = int(len(order) * spec.diagonal_fraction)
        cells = [(i, j) for i in range(n - 1) for j in range(n - 1)]
        rng.shuffle(cells)
        added = 0
        for i, j in cells:
            if added >= want:
                break
            c0, c1, c2, c3 = (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
            if (
                (c0, c1) in kept
                and (c0, c2) in kept
                and (c1, c3) in kept
                and (c2, c3) in kept
            ):
                a, b = points[i * n + j], points[(i + 1) * n + j + 1]
                if a != b:
                    segments.append(new(Segment, a + b))
                added += 1

    return MapData(name=name, segments=segments, world_size=spec.world_size)
