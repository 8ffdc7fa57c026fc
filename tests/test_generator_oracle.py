"""The parent's generator is the oracle of the call-free one.

``ref_generate_map`` and its helpers below are, unchanged, the county
generator before its hot loops were rewritten: one ``rng.uniform`` and
one ``Point`` per lattice vertex, one ``field`` and ``_edge_key`` call per
lattice edge, a ``neighbours`` call per walk step and per new network
vertex, a list ``insert`` per frontier extension and the 16-step
``_morton2`` bit loop per segment.

The rewrite promises the same ``random.Random`` calls with the same
arguments in the same order and the same float operations in the same
order, so the property below asks for the same segment list, segment for
segment, over random specs of all three kinds. Sets iterate in an order
that depends on their insertion history, so a rewrite that, say, adds
the field edges one by one into the selected set instead of merging a
separate set reorders the grown network's frontier and fails here.
"""

import math
import random
from typing import Dict, Iterable, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pmr import interleave
from repro.data.generator import GeneratorSpec, MapData, generate_map
from repro.geometry import Point, Segment

_Edge = Tuple[Tuple[int, int], Tuple[int, int]]  # lattice vertices, ordered


def _edge_key(a: Tuple[int, int], b: Tuple[int, int]) -> _Edge:
    return (a, b) if a <= b else (b, a)


def _morton2(x: int, y: int) -> int:
    """Bit-interleave two small non-negative ints (edge-ordering key)."""
    out = 0
    for bit in range(16):
        out |= ((x >> bit) & 1) << (2 * bit)
        out |= ((y >> bit) & 1) << (2 * bit + 1)
    return out


class _Lattice:
    """A jittered n x n lattice inside the world square."""

    #: Jitter bound as a fraction of the pitch; must stay below ~0.35 for
    #: the planarity argument (disjoint lattice edges are >= 1 pitch apart,
    #: each endpoint moves < jitter*pitch, so segments cannot touch).
    JITTER = 0.30

    def __init__(self, n: int, world_size: int, rng: random.Random) -> None:
        self.n = n
        self.world_size = world_size
        pitch = world_size / (n + 1)
        self.points: Dict[Tuple[int, int], Point] = {}
        for i in range(n):
            for j in range(n):
                x = (i + 1) * pitch + rng.uniform(-self.JITTER, self.JITTER) * pitch
                y = (j + 1) * pitch + rng.uniform(-self.JITTER, self.JITTER) * pitch
                self.points[(i, j)] = Point(
                    min(max(int(round(x)), 0), world_size - 1),
                    min(max(int(round(y)), 0), world_size - 1),
                )

    def neighbours(self, v: Tuple[int, int]) -> List[Tuple[int, int]]:
        i, j = v
        out = []
        if i > 0:
            out.append((i - 1, j))
        if i < self.n - 1:
            out.append((i + 1, j))
        if j > 0:
            out.append((i, j - 1))
        if j < self.n - 1:
            out.append((i, j + 1))
        return out

    def all_edges(self) -> Iterable[_Edge]:
        for i in range(self.n):
            for j in range(self.n):
                if i + 1 < self.n:
                    yield ((i, j), (i + 1, j))
                if j + 1 < self.n:
                    yield ((i, j), (i, j + 1))

    def segment(self, edge: _Edge) -> Segment:
        a = self.points[edge[0]]
        b = self.points[edge[1]]
        return Segment(a.x, a.y, b.x, b.y)


def _density_field(
    blobs: List[Tuple[float, float, float, float]], background: float
) -> "_FieldFn":
    """A smooth [0, 1] field: max of Gaussian blobs over a background.

    Each blob is (cx, cy, radius, peak) in unit coordinates.
    """

    def field(u: float, v: float) -> float:
        best = background
        for cx, cy, radius, peak in blobs:
            d2 = (u - cx) ** 2 + (v - cy) ** 2
            value = peak * math.exp(-d2 / (2 * radius * radius))
            if value > best:
                best = value
        return min(best, 1.0)

    return field


_FieldFn = "Callable[[float, float], float]"


def _select_field_edges(
    lattice: _Lattice, field, rng: random.Random
) -> Set[_Edge]:
    selected: Set[_Edge] = set()
    n = lattice.n
    for edge in lattice.all_edges():
        (i1, j1), (i2, j2) = edge
        u = (i1 + i2 + 2) / (2 * (n + 1))
        v = (j1 + j2 + 2) / (2 * (n + 1))
        if rng.random() < field(u, v):
            selected.add(edge)
    return selected


def _random_walk(
    lattice: _Lattice, rng: random.Random, length: int, straightness: float = 0.75
) -> List[_Edge]:
    """A self-avoiding-ish meander: momentum-biased walk on the lattice."""
    n = lattice.n
    v = (rng.randrange(n), rng.randrange(n))
    prev_dir: Tuple[int, int] = (0, 0)
    edges: List[_Edge] = []
    for _ in range(length):
        options = lattice.neighbours(v)
        if not options:
            break
        if prev_dir != (0, 0) and rng.random() < straightness:
            straight = (v[0] + prev_dir[0], v[1] + prev_dir[1])
            if straight in options:
                nxt = straight
            else:
                nxt = rng.choice(options)
        else:
            nxt = rng.choice(options)
        edges.append(_edge_key(v, nxt))
        prev_dir = (nxt[0] - v[0], nxt[1] - v[1])
        v = nxt
    return edges


def _grow_network(
    lattice: _Lattice, selected: Set[_Edge], need: int, rng: random.Random
) -> None:
    """Add ``need`` edges that extend or branch off the existing network."""
    if need <= 0:
        return
    vertices = {v for e in selected for v in e}
    if not vertices:
        v = (rng.randrange(lattice.n), rng.randrange(lattice.n))
        vertices.add(v)
    frontier = [
        _edge_key(v, w)
        for v in vertices
        for w in lattice.neighbours(v)
        if _edge_key(v, w) not in selected
    ]
    rng.shuffle(frontier)
    added = 0
    while frontier and added < need:
        edge = frontier.pop()
        if edge in selected:
            continue
        selected.add(edge)
        added += 1
        for v in edge:
            if v not in vertices:
                vertices.add(v)
                extensions = [
                    _edge_key(v, w)
                    for w in lattice.neighbours(v)
                    if _edge_key(v, w) not in selected
                ]
                for e in extensions:
                    frontier.insert(rng.randrange(len(frontier) + 1), e)


def _tandem(edges: List[_Edge], lattice: _Lattice, offset: Tuple[int, int]) -> List[_Edge]:
    """The same path shifted by one lattice cell (a stream beside a road)."""
    n = lattice.n
    out: List[_Edge] = []
    for (a, b) in edges:
        a2 = (a[0] + offset[0], a[1] + offset[1])
        b2 = (b[0] + offset[0], b[1] + offset[1])
        if 0 <= a2[0] < n and 0 <= a2[1] < n and 0 <= b2[0] < n and 0 <= b2[1] < n:
            out.append(_edge_key(a2, b2))
    return out


def ref_generate_map(name: str, spec: GeneratorSpec) -> MapData:
    """Generate a planar map of roughly ``spec.target_segments`` segments."""
    if spec.target_segments < 8:
        raise ValueError(f"target_segments too small: {spec.target_segments}")
    rng = random.Random(spec.seed)

    # Lattice sized so that the field + walks can reach the target count:
    # a full n x n lattice has ~2n^2 edges; aim to use about `fill` of them.
    fill = {"urban": 0.75, "suburban": 0.55, "rural": 0.30}[spec.kind]
    n = max(8, int(math.sqrt(spec.target_segments / (2 * fill))))
    lattice = _Lattice(n, spec.world_size, rng)

    selected: Set[_Edge] = set()

    walk_budget = int(spec.target_segments * spec.walk_fraction)
    while walk_budget > 0 and len(selected) < walk_budget:
        length = rng.randint(n, 3 * n)
        walk = _random_walk(lattice, rng, length)
        selected.update(walk)
        if walk and rng.random() < spec.tandem_probability:
            offset = rng.choice([(1, 0), (0, 1)])
            selected.update(_tandem(walk, lattice, offset))

    field_fn = _density_field(spec.blobs, spec.background)
    selected.update(_select_field_edges(lattice, field_fn, rng))

    # Trim or top up toward the target for comparable Table 1 rows.
    selected_list = sorted(selected)
    if len(selected_list) > spec.target_segments:
        rng.shuffle(selected_list)
        selected_list = selected_list[: spec.target_segments]
    else:
        # Grow the road network from its own frontier (roads extend and
        # branch) rather than sprinkling isolated edges, which would
        # shred the large rural faces the profiles are calibrated for.
        _grow_network(
            lattice, selected, spec.target_segments - len(selected_list), rng
        )
        selected_list = sorted(selected)
        if len(selected_list) > spec.target_segments:
            rng.shuffle(selected_list)
            selected_list = selected_list[: spec.target_segments]

    # Emit in Z-order of the edge midpoint: TIGER files group the chains
    # of an area together, which gives the segment table the 2-d locality
    # the paper's measurements rely on ("since the segments are usually
    # in proximity, they will be stored close to each other"); Morton
    # order is the scan order that preserves that locality best.
    selected_list.sort(key=lambda e: _morton2(e[0][0] + e[1][0], e[0][1] + e[1][1]))
    segments = [lattice.segment(e) for e in selected_list]

    # Urban shortcut streets: diagonals across otherwise-empty cells. A
    # diagonal of a lattice cell can only meet cell-boundary segments at
    # its endpoints, so planarity is preserved.
    if spec.diagonal_fraction > 0:
        selected_set = set(selected_list)
        want = int(len(segments) * spec.diagonal_fraction)
        cells = [(i, j) for i in range(n - 1) for j in range(n - 1)]
        rng.shuffle(cells)
        added = 0
        for (i, j) in cells:
            if added >= want:
                break
            corners = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
            cell_edges = [
                _edge_key(corners[0], corners[1]),
                _edge_key(corners[0], corners[2]),
                _edge_key(corners[1], corners[3]),
                _edge_key(corners[2], corners[3]),
            ]
            if all(e in selected_set for e in cell_edges):
                a = lattice.points[corners[0]]
                b = lattice.points[corners[3]]
                segments.append(Segment(a.x, a.y, b.x, b.y))
                added += 1

    # Drop any degenerate segments produced by extreme jitter collisions.
    segments = [s for s in segments if not s.is_degenerate()]
    return MapData(name=name, segments=segments, world_size=spec.world_size)


unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def specs(draw) -> GeneratorSpec:
    """Specs of all three kinds, the six counties' knobs and beyond: a
    level above 1 exercises the field's cap, a small world rounds
    vertices together into degenerate segments and clamps them to it."""
    blob = st.tuples(unit, unit, st.floats(0.02, 0.5), st.floats(0.0, 1.2))
    return GeneratorSpec(
        kind=draw(st.sampled_from(["urban", "suburban", "rural"])),
        target_segments=draw(
            st.one_of(st.integers(8, 300), st.integers(300, 3000))
        ),
        seed=draw(st.integers(0, 2**32)),
        world_size=draw(
            st.one_of(st.integers(1, 200), st.integers(1000, 1 << 20))
        ),
        blobs=draw(st.lists(blob, max_size=3)),
        background=draw(st.floats(0.0, 1.2)),
        walk_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.8))),
        tandem_probability=draw(unit),
        diagonal_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
    )


@settings(deadline=None, max_examples=80)
@given(specs())
def test_same_segments_as_the_parent(spec):
    got = generate_map("t", spec)
    want = ref_generate_map("t", spec)
    assert got.world_size == want.world_size
    assert got.segments == want.segments
    assert [type(s) for s in got.segments] == [type(s) for s in want.segments]
    assert all(type(v) is int for s in got.segments for v in s)


def test_interleave_is_the_old_edge_key():
    # Both keys put x's bits in the even places and y's in the odd ones,
    # so one axis at a time covers every pair; an edge's midpoint sums
    # stay below 2**16 while the lattice side does.
    for s in range(1 << 16):
        assert interleave(s, 0) == _morton2(s, 0)
        assert interleave(0, s) == _morton2(0, s)


@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_interleave_pairs(x, y):
    assert interleave(x, y) == _morton2(x, y)
