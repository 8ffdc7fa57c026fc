"""The routed counter baseline: five seeded workloads through a shard router.

One shard set per structure (R*, R+, PMR), every shard served in this
process (:class:`~repro.shard.LocalShardSet`), and a
:class:`~repro.shard.RouterCore` driven on one thread in seeded order --
so the paper's three counters, summed across shards by the router's
``stats``, are deterministic. All 54 of them (3 structures x (5
workloads + totals) x 3 counters) must equal
``benchmarks/results/BENCH_shard_baseline.json``, which also supplies the
parameters. A counter that moves either way is a change in behaviour,
and the failure names it as ``structure/workload/metric: committed ->
fresh``. The record's build timings and wall-clock percentiles are not
read.
"""

import copy
import json
import random
import tempfile
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.bench.compare import EXIT_INCOMPARABLE, compare_records, load_record
from repro.data.counties import generate_county
from repro.metric_names import PAPER_METRICS
from repro.shard import LocalShardSet, RouterCore, init_shard_set

RESULTS = Path(__file__).parents[1] / "benchmarks" / "results"
BASELINE = RESULTS / "BENCH_shard_baseline.json"

STRUCTURES = ("R*", "R+", "PMR")
#: Three scatter-gather reads, one batch mix, and one mutation round
#: trip (inserts then deletes -- the replicated-table write fan-out).
WORKLOADS = ("point", "window", "nearest", "batch", "mutate")


def _workload_requests(map_data, n: int, seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """The five seeded request streams, as raw wire payloads.

    Point queries hit actual segment endpoints (the paper's model:
    queries are data-correlated); windows and nearest probes are uniform
    over the world square. The mutate stream holds the inserts; their
    deletes are built as the inserts return seg_ids.
    """
    rng = random.Random(seed)
    world = map_data.world_size
    segments = map_data.segments

    points = []
    for _ in range(n):
        seg = segments[rng.randrange(len(segments))]
        x, y = (seg.x1, seg.y1) if rng.random() < 0.5 else (seg.x2, seg.y2)
        points.append({"op": "point", "x": x, "y": y})

    windows = []
    span = world * 0.03
    for _ in range(n):
        x = rng.uniform(0.0, world - span)
        y = rng.uniform(0.0, world - span)
        windows.append(
            {"op": "window", "x1": x, "y1": y, "x2": x + span, "y2": y + span}
        )

    nearest = [
        {
            "op": "nearest",
            "x": rng.uniform(0.0, world),
            "y": rng.uniform(0.0, world),
            "k": 2,
        }
        for _ in range(n)
    ]

    # The batches reshuffle the very requests the three read workloads
    # ran first, so they bypass the result cache: the row has to price
    # clip -> sub-batch -> Morton run -> positional merge, not 75 hits.
    members = points + windows + nearest
    rng.shuffle(members)
    batches = [
        {"op": "batch", "requests": members[base : base + 5], "use_cache": False}
        for base in range(0, n * 3, 5)
    ]

    inserts = []
    for _ in range(n):
        x = rng.uniform(0.0, world * 0.9)
        y = rng.uniform(0.0, world * 0.9)
        inserts.append(
            {
                "op": "insert",
                "x1": x,
                "y1": y,
                "x2": x + rng.uniform(1.0, world * 0.05),
                "y2": y + rng.uniform(1.0, world * 0.05),
            }
        )

    return {
        "point": points,
        "window": windows,
        "nearest": nearest,
        "batch": batches,
        "mutate": inserts,
    }


def _respond(core: RouterCore, payload: Dict[str, Any]) -> Any:
    response = core.respond(json.dumps(payload))
    assert response["ok"], (payload["op"], response["error"])
    return response["result"]


def _run_workload(core: RouterCore, name: str, requests) -> Dict[str, int]:
    """One workload's counter movement in the router's merged ``stats``."""
    before = _respond(core, {"op": "stats"})["totals"]
    results = [_respond(core, payload) for payload in requests]
    if name == "mutate":
        # Delete everything the workload inserted, so every structure
        # starts and ends with the same live set.
        for seg_id in results:
            _respond(core, {"op": "delete", "seg_id": int(seg_id)})
    after = _respond(core, {"op": "stats"})["totals"]
    out = {"queries": len(requests) * (2 if name == "mutate" else 1)}
    for metric in PAPER_METRICS:
        out[metric] = after[metric] - before[metric]
    return out


def run_routed(params: Dict[str, Any]) -> Dict[str, Any]:
    """Build, serve and drive one shard set per structure; the result has
    the committed record's ``structures`` shape."""
    map_data = generate_county(params["county"], scale=params["scale"])
    streams = _workload_requests(map_data, params["n_queries"], params["seed"])
    structures: Dict[str, Any] = {}
    for name in STRUCTURES:
        with tempfile.TemporaryDirectory(prefix="repro-routed-") as root:
            init_shard_set(
                root,
                name,
                map_data=map_data,
                n_shards=params["n_shards"],
                page_size=params["page_size"],
                pool_pages=params["pool_pages"],
            )
            with LocalShardSet(root):
                core = RouterCore(root)
                try:
                    workloads = {
                        w: _run_workload(core, w, streams[w]) for w in WORKLOADS
                    }
                finally:
                    core.close_clients()
        totals = {m: sum(w[m] for w in workloads.values()) for m in PAPER_METRICS}
        structures[name] = {"workloads": workloads, "totals": totals}
    return {"structures": structures}


def counters(record: Dict[str, Any]) -> Dict[str, int]:
    """Every gated counter of a record, by ``structure/workload/metric``."""
    out = {}
    for name, entry in record["structures"].items():
        rows = {"totals": entry["totals"], **entry["workloads"]}
        for row_name, row in rows.items():
            for metric in PAPER_METRICS:
                out[f"{name}/{row_name}/{metric}"] = row.get(metric)
    return out


def mismatches(committed: Dict[str, Any], fresh: Dict[str, Any]) -> List[str]:
    """``label: committed -> fresh`` for every counter that differs or is
    missing on one side (shown as ``None``)."""
    want, got = counters(committed), counters(fresh)
    return [
        f"{label}: {want.get(label)} -> {got.get(label)}"
        for label in sorted(want.keys() | got.keys())
        if want.get(label) != got.get(label)
    ]


@pytest.fixture(scope="module")
def committed():
    return load_record(str(BASELINE))


@pytest.fixture(scope="module")
def fresh(committed):
    return run_routed(committed["params"])


class TestCommittedBaseline:
    def test_routed_counters_gate_on_the_committed_record(self, committed, fresh):
        """All 54 counters equal the committed record. One that reads
        *lower* is a finding too -- the ``batch`` row once read 0 for
        every structure because each member was a result-cache hit."""
        assert len(counters(committed)) == 54
        moved = mismatches(committed, fresh)
        assert not moved, "counters moved:\n" + "\n".join(moved)
        for name, entry in committed["structures"].items():
            row = entry["workloads"]["batch"]
            assert row["segment_comps"] > 0 and row["bbox_comps"] > 0, (name, row)


class TestRoutedRecord:
    def test_record_validates(self, committed):
        """The committed record carries every parameter the driver reads
        and an int for each of its 54 counters."""
        assert set(committed["params"]) == {
            "county",
            "n_queries",
            "n_shards",
            "page_size",
            "pool_pages",
            "scale",
            "seed",
        }
        values = counters(committed).values()
        assert len(values) == 54 and all(isinstance(v, int) for v in values)

    def test_every_structure_and_workload_present(self, committed, fresh):
        for record in (committed, fresh):
            assert set(record["structures"]) == set(STRUCTURES)
            for entry in record["structures"].values():
                assert set(entry["workloads"]) == set(WORKLOADS)

    def test_totals_are_workload_sums(self, committed):
        for entry in committed["structures"].values():
            for metric in PAPER_METRICS:
                assert entry["totals"][metric] == sum(
                    entry["workloads"][w][metric] for w in WORKLOADS
                )

    def test_workloads_actually_ran(self, committed, fresh):
        for name, entry in fresh["structures"].items():
            for w in WORKLOADS:
                ran = entry["workloads"][w]["queries"]
                assert ran == committed["structures"][name]["workloads"][w]["queries"]
                assert ran > 0
            # The read workloads must touch the disk counters.
            assert entry["totals"]["disk_accesses"] > 0

    def test_self_comparison_is_clean_at_zero_tolerance(self, committed):
        assert mismatches(committed, copy.deepcopy(committed)) == []


class TestGateKindSafety:
    def test_cross_kind_comparison_refused(self, committed):
        """The comparer speaks only ``BENCH_e2e.json``: a routed record is
        not comparable with the paper-scale one."""
        paper_scale = load_record(str(RESULTS / "BENCH_paper_core.json"))
        code, lines = compare_records(paper_scale, committed)
        assert code == EXIT_INCOMPARABLE
        assert "fresh record is invalid:" in lines

    def test_unknown_kind_refused(self):
        bogus = {"kind": "repro-mystery-bench"}
        code, lines = compare_records(bogus, dict(bogus))
        assert code == EXIT_INCOMPARABLE

    def test_regression_detected(self, committed):
        """One counter raised by 1 and another lowered by 1: each fails,
        by name."""
        moved = copy.deepcopy(committed)
        pmr = moved["structures"]["PMR"]
        pmr["workloads"]["window"]["disk_accesses"] += 1
        pmr["totals"]["bbox_comps"] -= 1
        base = committed["structures"]["PMR"]
        assert mismatches(committed, moved) == [
            f"PMR/totals/bbox_comps: {base['totals']['bbox_comps']} -> "
            f"{base['totals']['bbox_comps'] - 1}",
            f"PMR/window/disk_accesses: {base['workloads']['window']['disk_accesses']}"
            f" -> {base['workloads']['window']['disk_accesses'] + 1}",
        ]

    def test_missing_workload_fails_validation(self, committed):
        broken = copy.deepcopy(committed)
        del broken["structures"]["R*"]["workloads"]["mutate"]
        want = counters(committed)
        assert mismatches(committed, broken) == [
            f"R*/mutate/{m}: {want[f'R*/mutate/{m}']} -> None"
            for m in sorted(PAPER_METRICS)
        ]
