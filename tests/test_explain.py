"""EXPLAIN: exact per-level attribution, goldens, and invariance.

The headline property is *exactness by construction*: there is one
traversal loop per query, and EXPLAIN only brackets its units of work in
windows that read the live counters -- so summing a profile's buckets
reproduces the engine's counters to the unit, an explained query costs
exactly what the plain query would have, and work nobody bracketed
shows up as ``unattributed`` instead of vanishing.
"""

import ast
import importlib.util
import os
import random
import sys

import pytest

from repro.analysis import check_index
from repro.core import (
    GuttmanRTree,
    PMRQuadtree,
    RPlusTree,
    RStarTree,
    treesearch,
)
from repro.core.queries import QuerySpec
from repro.core.queries.spec import execute_spec
from repro.geometry import Point, Rect
from repro.metric_names import COUNTER_FIELDS
from repro.obs import (
    ExplainProfile,
    MetricsRegistry,
    format_explain,
    merge_attributed,
)
from repro.service import Command, QueryEngine, parse_request
from repro.storage import StorageContext
from repro.storage.counters import MetricsCounters

from tests.conftest import build_index, lattice_map

EXPLAIN_STRUCTURES = ["R*", "R+", "PMR"]


def point(x, y):
    return QuerySpec.point(Point(x, y))


def window(x1, y1, x2, y2):
    return QuerySpec.window(Rect(x1, y1, x2, y2))


def nearest(x, y, k):
    return QuerySpec.nearest(Point(x, y), k)


def explain(spec):
    return Command("explain", query=spec)


#: One fixed query on the fixed 8x8 lattice, explained from a cold pool.
GOLDEN_WINDOW = (0, 0, 350, 350)

#: Exact per-level counts for GOLDEN_WINDOW per structure. Regenerate by
#: running the same query and printing ``report["plan"]["levels"]`` --
#: any change here means the traversal order or charging moved, which is
#: exactly what this test exists to catch.
GOLDEN_LEVELS = {
    "R*": [
        {"level": 0, "node_visits": 1, "disk_reads": 1, "bbox_comps": 4,
         "entries_examined": 4, "entries_matched": 3, "entries_pruned": 1},
        {"level": 1, "node_visits": 3, "disk_reads": 3, "bbox_comps": 81,
         "entries_examined": 81, "entries_matched": 18, "entries_pruned": 63},
    ],
    "R+": [
        {"level": 0, "node_visits": 1, "disk_reads": 1, "bbox_comps": 4,
         "entries_examined": 4, "entries_matched": 1, "entries_pruned": 3},
        {"level": 1, "node_visits": 1, "disk_reads": 1, "bbox_comps": 25,
         "entries_examined": 25, "entries_matched": 18, "entries_pruned": 7},
    ],
    "PMR": [
        {"level": 0, "node_visits": 1, "bbox_comps": 0},
        {"level": 1, "node_visits": 1, "bbox_comps": 0},
        {"level": 2, "node_visits": 4, "bbox_comps": 0},
        {"level": 3, "node_visits": 9, "bbox_comps": 9,
         "entries_examined": 9, "entries_matched": 9},
    ],
}

GOLDEN_COUNTS = {
    "R*": {"candidates": 18, "results": 18, "segment_fetches": 18},
    "R+": {"candidates": 18, "results": 18, "segment_fetches": 18},
    "PMR": {
        "blocks_decoded": 15,
        "btree_internal_visited": 4,
        "btree_leaves_scanned": 4,
        "btree_scans": 4,
        "candidates": 30,
        "duplicates_deduped": 12,
        "results": 18,
        "segment_fetches": 18,
    },
}


class UnbracketedSearch:
    """A structure whose candidate search opens no EXPLAIN window: the
    stock loops run with the context's profile hidden, as a forgotten
    bracket would leave them."""

    def _unbracketed(self, search, *args):
        ctx = self.ctx
        profile, ctx.profile = ctx.profile, None
        try:
            return search(*args)
        finally:
            ctx.profile = profile

    def candidate_ids_at_point(self, p):
        return self._unbracketed(super().candidate_ids_at_point, p)

    def candidate_ids_in_rect(self, r):
        return self._unbracketed(super().candidate_ids_in_rect, r)

    def nn_expand(self, ref, p):
        return self._unbracketed(super().nn_expand, ref, p)


class UnbracketedRStarTree(UnbracketedSearch, RStarTree):
    pass


class UnbracketedRPlusTree(UnbracketedSearch, RPlusTree):
    pass


class UnbracketedPMRQuadtree(UnbracketedSearch, PMRQuadtree):
    pass


#: Subjects of the unattributed self-check. The k-d-B tree and the uniform
#: grid, which searched in loops of their own with no window, are gone;
#: their cases keep their ids and hide the window over the pages each
#: shared -- the k-d-B tree the R+-tree's, the grid the PMR's B-tree.
UNBRACKETED = {
    "R*": UnbracketedRStarTree,
    "kdB": UnbracketedRPlusTree,
    "grid": UnbracketedPMRQuadtree,
}


def make_engine(kind: str) -> QueryEngine:
    return QueryEngine(build_index(kind, lattice_map(n=8)), registry=MetricsRegistry())


@pytest.fixture(params=EXPLAIN_STRUCTURES)
def explain_engine(request):
    return request.param, make_engine(request.param)


class TestExactness:
    def test_all_read_ops_attribute_exactly(self, explain_engine):
        _, engine = explain_engine
        for req in (
            point(100, 100),
            window(0, 0, 350, 350),
            nearest(321, 321, k=3),
        ):
            report = engine.execute(explain(req))
            assert report["exact"] is True, report.get("unattributed")
            assert "unattributed" not in report
            assert report["plan"]["levels"], "profile recorded no levels"

    def test_summed_profiles_reproduce_engine_aggregates(self, explain_engine):
        """Acceptance: sum of per-level EXPLAIN deltas over a fixed-seed
        workload == the engine's aggregate counters, to the unit."""
        _, engine = explain_engine
        rng = random.Random(1992)
        reports = []
        for _ in range(30):
            roll = rng.random()
            if roll < 0.34:
                req = point(rng.randrange(900), rng.randrange(900))
            elif roll < 0.67:
                x, y = rng.randrange(700), rng.randrange(700)
                req = window(x, y, x + 200, y + 200)
            else:
                req = nearest(
                    rng.randrange(900), rng.randrange(900), k=rng.randrange(1, 4)
                )
            reports.append(engine.execute(explain(req)))
        summed = merge_attributed(reports)
        totals = engine.totals.as_dict()
        for name in COUNTER_FIELDS:
            assert summed[name] == totals[name], name

    def test_explain_charges_exactly_what_plain_query_would(self):
        """Invariance: an explained query moves every MetricsCounters
        field identically to the plain query on a twin engine, and a
        query run with a profile attached returns the same ids."""
        requests = [
            parse_request({**raw, "use_cache": False})
            for raw in (
                {"op": "point", "x": 100, "y": 100},
                {"op": "window", "x1": 0, "y1": 0, "x2": 350, "y2": 350},
                {"op": "nearest", "x": 321, "y": 321, "k": 3},
            )
        ]
        for kind in EXPLAIN_STRUCTURES + ["R"]:
            for req in requests:
                case = (kind, req.op)
                plain = make_engine(kind)
                explained = make_engine(kind)
                plain.cold_start()
                explained.cold_start()
                want = plain.execute(req)
                report = explained.execute(explain(req))
                assert report["exact"] is True, case
                assert report["result_count"] == len(want), case
                assert plain.totals == explained.totals, case
                # EXPLAIN reports a count, not ids: run the same
                # traversal with a profile set on the context to see them.
                ctx = explained.index.ctx
                ctx.profile = ExplainProfile(req.op, kind)
                try:
                    got = execute_spec(explained.index, req)
                finally:
                    ctx.profile = None
                assert got == want, case

    @pytest.mark.parametrize("kind", list(UNBRACKETED))
    def test_unbracketed_work_surfaces_as_unattributed(self, kind):
        """The self-check: a structure whose traversal opens no window
        still moves the counters, and the report says by how much."""
        ctx = StorageContext.create()
        index = UNBRACKETED[kind](ctx)
        for seg_id in ctx.load_segments(lattice_map(n=8)):
            index.insert(seg_id)
        engine = QueryEngine(index, registry=MetricsRegistry())
        for req in (
            point(100, 100),
            window(0, 0, 350, 350),
            nearest(321, 321, k=3),
        ):
            report = engine.execute(explain(req))
            assert report["exact"] is False, req.op
            observed = report["observed"]
            attributed = report["plan"]["attributed"]
            unattributed = report["unattributed"]
            for name in COUNTER_FIELDS:
                assert (
                    unattributed.get(name, 0) == observed[name] - attributed[name]
                ), (req.op, name)
            # The traversal brackets nothing; the shared verify loop does.
            assert unattributed["bbox_comps"] == observed["bbox_comps"] > 0
            assert "segment_comps" not in unattributed
            assert set(unattributed) <= set(COUNTER_FIELDS)

    def test_explain_leaves_fsck_clean(self, explain_engine):
        _, engine = explain_engine
        before = [f.to_dict() for f in check_index(engine.index)]
        engine.execute(explain(window(0, 0, 350, 350)))
        engine.execute(explain(nearest(500, 500, k=2)))
        after = [f.to_dict() for f in check_index(engine.index)]
        assert before == after


class TestGolden:
    @pytest.mark.parametrize("kind", EXPLAIN_STRUCTURES)
    def test_fixed_window_per_level_counts(self, kind):
        engine = make_engine(kind)
        engine.cold_start()
        report = engine.execute(explain(window(*GOLDEN_WINDOW)))
        assert report["exact"] is True
        assert report["result_count"] == 18
        levels = report["plan"]["levels"]
        golden = GOLDEN_LEVELS[kind]
        assert len(levels) == len(golden)
        for got, want in zip(levels, golden):
            for key, value in want.items():
                assert got[key] == value, (kind, got["level"], key)
        assert report["plan"]["counts"] == GOLDEN_COUNTS[kind]

    def test_golden_attribution_totals(self):
        engine = make_engine("R*")
        engine.cold_start()
        report = engine.execute(explain(window(*GOLDEN_WINDOW)))
        attributed = report["plan"]["attributed"]
        assert attributed["disk_reads"] == 5
        assert attributed["bbox_comps"] == 85
        assert attributed["segment_comps"] == 18
        assert attributed["disk_accesses"] == attributed["disk_reads"]


class TestCacheAndSessions:
    def test_explain_bypasses_cache_but_reports_would_hit(self):
        engine = make_engine("R*")
        session = engine.session("probe")
        report = engine.execute(
            explain(window(0, 0, 350, 350)), session=session
        )
        assert report["cache"] == {"would_hit": False, "bypassed": True}
        engine.execute(window(0, 0, 350, 350), session=session)  # now cached
        hits_before = engine.cache.hits
        report = engine.execute(
            explain(window(0, 0, 350, 350)), session=session
        )
        assert report["cache"]["would_hit"] is True
        assert engine.cache.hits == hits_before  # peek counted nothing

    def test_explain_is_attributed_to_the_session(self):
        engine = make_engine("R+")
        session = engine.session("alice")
        engine.execute(explain(point(100, 100)), session=session)
        assert session.queries == 1
        assert engine.counters_consistent()
        total = MetricsCounters()
        total.merge(session.counters)
        assert total == engine.totals


class TestRendering:
    def test_format_explain_mentions_levels_and_exactness(self):
        engine = make_engine("PMR")
        report = engine.execute(explain(window(0, 0, 350, 350)))
        text = format_explain(report)
        assert "EXPLAIN window on PMR" in text
        assert "level 0" in text
        assert "segment_table" in text
        assert "attribution exact: True" in text

    def test_wire_parse_rejects_non_read_inner_op(self):
        from repro.errors import ProtocolError
        from repro.service.api import parse_request

        with pytest.raises(ProtocolError):
            parse_request({"op": "explain", "query": {"op": "stats"}})
        with pytest.raises(ProtocolError):
            parse_request({"op": "explain"})


class TestOneLoopPerQuery:
    """The acceptance greps, as a test: no traversal exists twice."""

    SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

    def test_no_profiled_twin_is_defined(self):
        twins = []
        for dirpath, _dirs, files in os.walk(self.SRC):
            for fname in files:
                if fname.endswith(".py"):
                    path = os.path.join(dirpath, fname)
                    with open(path, encoding="utf-8") as fh:
                        tree = ast.parse(fh.read())
                    twins += [
                        f"{os.path.relpath(path, self.SRC)}:{node.name}"
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and "profiled" in node.name
                    ]
        assert twins == []
        assert importlib.util.find_spec("repro.core.profiled") is None

    def test_charge_windows_are_gone_from_the_profile(self):
        with open(os.path.join(self.SRC, "obs", "explain.py"), encoding="utf-8") as fh:
            source = fh.read()
        assert "_ChargeWindow" not in source
        assert "charge_level" not in source

    @pytest.mark.parametrize(
        "method, shared",
        [
            ("candidate_ids_at_point", "search_tree"),
            ("candidate_ids_in_rect", "search_tree"),
            ("nn_expand", "expand_node"),
        ],
    )
    def test_rtree_family_shares_its_searches(self, method, shared):
        for cls in (GuttmanRTree, RPlusTree):
            # One definition serves both: the family's base class.
            assert getattr(cls, method) is getattr(treesearch.NodeTree, method)
            code = getattr(cls, method).__code__
            assert code.co_names.count(shared) == 1, (cls.__name__, code.co_names)
            module = sys.modules[getattr(cls, method).__module__]
            assert getattr(module, shared) is getattr(treesearch, shared)
