"""Integration tests for the five queries of Section 5.

Every structure must return identical, oracle-verified answers for every
query -- the paper's premise is that the structures differ in cost, never
in results.
"""

import ast
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import SCALAR_BACKEND, ScalarBackend, resolve_backend
from repro.core.queries import (
    QuerySpec,
    execute_spec,
    iter_nearest,
)
from repro.geometry import Point, Rect, Segment

from tests.conftest import (
    ALL_STRUCTURES,
    build_index,
    lattice_map,
    oracle_at_point,
    oracle_in_window,
    oracle_nearest_dist2,
    random_planar_segments,
)


class TestQuery1PointIncidence:
    def test_matches_oracle_everywhere(self, any_structure):
        rng = random.Random(61)
        segs = random_planar_segments(rng)
        idx = build_index(any_structure, segs)
        for s in segs:
            for p in (s.start, s.end):
                assert set(execute_spec(idx, QuerySpec.point(p))) == set(
                    oracle_at_point(segs, p)
                )

    def test_point_not_an_endpoint(self, any_structure):
        segs = lattice_map(n=4, pitch=150)
        idx = build_index(any_structure, segs)
        assert execute_spec(idx, QuerySpec.point(Point(3, 3))) == []

    def test_interior_point_of_segment_not_incident(self, any_structure):
        segs = [Segment(100, 100, 300, 100)]
        idx = build_index(any_structure, segs)
        assert execute_spec(idx, QuerySpec.point(Point(200, 100))) == []


class TestQuery2OtherEndpoint:
    def test_finds_other_end(self, any_structure):
        segs = lattice_map(n=5, pitch=120)
        idx = build_index(any_structure, segs)
        seg_id = 7
        s = segs[seg_id]
        other, incident = execute_spec(idx, QuerySpec.other_endpoint(s.start, seg_id))
        assert other == s.end
        expected = set(oracle_at_point(segs, s.end)) - {seg_id}
        assert set(incident) == expected

    def test_wrong_point_raises(self, any_structure):
        segs = lattice_map(n=4, pitch=150)
        idx = build_index(any_structure, segs)
        with pytest.raises(KeyError):
            execute_spec(idx, QuerySpec.other_endpoint(Point(1, 1), 0))


class TestQuery3Nearest:
    def test_matches_oracle_on_random_points(self, any_structure):
        rng = random.Random(62)
        segs = random_planar_segments(rng)
        idx = build_index(any_structure, segs)
        for _ in range(25):
            p = Point(rng.randint(0, 1023), rng.randint(0, 1023))
            sid, d2 = execute_spec(idx, QuerySpec.nearest(p))[0]
            assert d2 == pytest.approx(oracle_nearest_dist2(segs, p))
            # The returned segment actually achieves that distance.
            assert segs[sid].distance2_to_point(p) == pytest.approx(d2)

    def test_empty_index(self, any_structure):
        from repro.storage import StorageContext
        from tests.conftest import make_index

        idx = make_index(any_structure, StorageContext.create())
        assert execute_spec(idx, QuerySpec.nearest(Point(5, 5))) == []

    def test_point_on_segment_gives_zero(self, any_structure):
        segs = lattice_map(n=4, pitch=150)
        idx = build_index(any_structure, segs)
        p = Point(segs[0].x1, segs[0].y1)
        sid, d2 = execute_spec(idx, QuerySpec.nearest(p))[0]
        assert d2 == 0

    def test_iter_nearest_is_sorted_and_complete(self, any_structure):
        rng = random.Random(63)
        segs = random_planar_segments(rng, n_cells=4)
        idx = build_index(any_structure, segs)
        p = Point(500, 500)
        results = list(iter_nearest(idx, p))
        assert len(results) == len(segs)
        dists = [d for _, d in results]
        assert dists == sorted(dists)
        assert {sid for sid, _ in results} == set(range(len(segs)))
        # And each reported distance is the true one.
        for sid, d2 in results:
            assert segs[sid].distance2_to_point(p) == pytest.approx(d2)


class TestQuery4Polygon:
    def test_unit_square_face(self, any_structure):
        segs = lattice_map(n=4, pitch=150)
        idx = build_index(any_structure, segs)
        # A point inside the cell between lattice points (0,0) and (1,1).
        r = execute_spec(idx, QuerySpec.polygon(Point(225, 225)))
        assert r is not None and r.closed
        assert not r.is_outer
        assert r.size == 4
        assert r.vertices[0] == r.vertices[-1]

    def test_all_structures_agree(self):
        segs = lattice_map(n=5, pitch=120)
        results = {}
        for kind in ALL_STRUCTURES:
            idx = build_index(kind, segs)
            r = execute_spec(idx, QuerySpec.polygon(Point(350, 290)))
            results[kind] = (tuple(sorted(r.seg_ids)), r.is_outer, r.size)
        assert len(set(results.values())) == 1, results

    def test_outer_face_detected(self, any_structure):
        segs = lattice_map(n=3, pitch=100)  # occupies [100..300]^2
        idx = build_index(any_structure, segs)
        r = execute_spec(idx, QuerySpec.polygon(Point(900, 900)))
        assert r is not None and r.closed
        assert r.is_outer

    def test_face_with_dangling_edge(self, any_structure):
        # A square face with a stub poking inward: the stub is walked
        # twice (in and out), as in any DCEL face traversal.
        segs = [
            Segment(100, 100, 300, 100),
            Segment(300, 100, 300, 200),  # right side, noded at the stub
            Segment(300, 200, 300, 300),
            Segment(300, 300, 100, 300),
            Segment(100, 300, 100, 100),
            Segment(300, 200, 200, 200),  # dangling stub into the face
        ]
        idx = build_index(any_structure, segs)
        r = execute_spec(idx, QuerySpec.polygon(Point(150, 150)))
        assert r.closed
        assert not r.is_outer
        # 5 boundary edges + the stub twice = 7 edge steps.
        assert r.size == 7
        assert r.seg_ids.count(5) == 2

    def test_empty_index_returns_none(self, any_structure):
        from repro.storage import StorageContext
        from tests.conftest import make_index

        idx = make_index(any_structure, StorageContext.create())
        assert execute_spec(idx, QuerySpec.polygon(Point(5, 5))) is None

    def test_isolated_segment_degenerate_face(self, any_structure):
        segs = [Segment(100, 100, 300, 200)]
        idx = build_index(any_structure, segs)
        r = execute_spec(idx, QuerySpec.polygon(Point(200, 300)))
        assert r.closed
        assert r.size == 2  # out and back along the only edge

    def test_rural_style_large_face(self, any_structure):
        # A long "ladder without rungs": two parallel meanders joined at
        # the ends (the paper's road+stream tandem polygon).
        top = [Segment(100 + i * 80, 400, 180 + i * 80, 400) for i in range(8)]
        bottom = [Segment(100 + i * 80, 600, 180 + i * 80, 600) for i in range(8)]
        caps = [Segment(100, 400, 100, 600), Segment(740, 400, 740, 600)]
        segs = top + bottom + caps
        idx = build_index(any_structure, segs)
        r = execute_spec(idx, QuerySpec.polygon(Point(400, 500)))
        assert r.closed and not r.is_outer
        assert r.size == len(segs)


class TestQuery5Window:
    def test_matches_oracle(self, any_structure):
        rng = random.Random(64)
        segs = random_planar_segments(rng)
        idx = build_index(any_structure, segs)
        for _ in range(25):
            x, y = rng.randint(0, 900), rng.randint(0, 900)
            w = Rect(x, y, x + rng.randint(5, 200), y + rng.randint(5, 200))
            assert set(execute_spec(idx, QuerySpec.window(w))) == set(
                oracle_in_window(segs, w)
            )

    def test_empty_window(self, any_structure):
        segs = lattice_map(n=3, pitch=100)  # occupies [100..300]^2
        idx = build_index(any_structure, segs)
        assert execute_spec(idx, QuerySpec.window(Rect(700, 700, 800, 800))) == []

    def test_window_touching_endpoint_only(self, any_structure):
        segs = [Segment(100, 100, 300, 100)]
        idx = build_index(any_structure, segs)
        assert execute_spec(idx, QuerySpec.window(Rect(300, 100, 400, 200))) == [0]

    def test_window_crossing_interior_only(self, any_structure):
        """A window the segment passes through without any endpoint."""
        segs = [Segment(100, 150, 500, 150)]
        idx = build_index(any_structure, segs)
        assert execute_spec(idx, QuerySpec.window(Rect(250, 100, 300, 200))) == [0]


class TestCrossStructureAgreement:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_all_five_queries_agree_across_structures(self, seed):
        rng = random.Random(seed)
        segs = random_planar_segments(rng, n_cells=5)
        indexes = {k: build_index(k, segs) for k in ALL_STRUCTURES}

        p_end = segs[rng.randrange(len(segs))].start
        q1 = {
            k: set(execute_spec(idx, QuerySpec.point(p_end)))
            for k, idx in indexes.items()
        }
        assert len({frozenset(v) for v in q1.values()}) == 1

        p = Point(rng.randint(0, 1023), rng.randint(0, 1023))
        q3 = {
            k: execute_spec(idx, QuerySpec.nearest(p))[0][1]
            for k, idx in indexes.items()
        }
        base = next(iter(q3.values()))
        for v in q3.values():
            assert v == pytest.approx(base)

        w = Rect(100, 100, 600, 600)
        q5 = {
            k: frozenset(execute_spec(idx, QuerySpec.window(w)))
            for k, idx in indexes.items()
        }
        assert len(set(q5.values())) == 1


@pytest.mark.parametrize(
    "name",
    [
        "window_query",
        "segments_at_point",
        "segments_at_other_endpoint",
        "incident_segments_with_geometry",
        "nearest_segment",
        "nearest_k_segments",
        "enclosing_polygon",
    ],
)
def test_legacy_query_shims_are_gone(name):
    """QuerySpec + execute_spec is the only entry into traversal."""
    import repro
    import repro.core.queries as queries

    for module in (repro, queries):
        assert not hasattr(module, name)
        assert name not in module.__all__
    with pytest.raises(ImportError):
        exec(f"from repro.core.queries import {name}")


class TestOneTraversal:
    """Every query takes one scalar traversal, and nothing in the package
    needs numpy."""

    def test_every_backend_name_resolves_to_the_scalar_backend(self):
        for name in (None, "scalar"):
            assert resolve_backend(name) is SCALAR_BACKEND
            assert resolve_backend(name).name == "scalar"
        # The registered benchmark still asks for "vector" and times its
        # run_batch; that is the same traversal under the old name.
        alias = resolve_backend("vector")
        assert isinstance(alias, ScalarBackend) and alias.name == "vector"
        index = build_index("PMR", lattice_map(n=6))
        specs = [QuerySpec.window(Rect(x, x, x + 200, x + 150)) for x in (0, 300, 700)]
        assert alias.run_batch(index, specs) == [SCALAR_BACKEND.run(index, s) for s in specs]
        alias.invalidate()
        with pytest.raises(ValueError):
            resolve_backend("simd")

    def test_no_module_imports_numpy(self):
        src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        offenders = []
        for dirpath, _dirs, files in os.walk(src):
            for fname in files:
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and node.module:
                        names = [node.module]
                    else:
                        continue
                    if any(name.split(".")[0] == "numpy" for name in names):
                        offenders.append((os.path.relpath(path, src), node.lineno))
        assert offenders == []
