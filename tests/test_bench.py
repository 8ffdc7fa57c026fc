"""The counter gate (``python -m repro bench --compare BASELINE RECORD``).

No benchmark runs here: the gate is driven with synthetic records in the
shape ``benchmarks/e2e/run.py --out`` writes (``BENCH_e2e.json``), with a
hand-built routed record for the one tolerance-bearing kind, and with the
committed paper-scale record ``benchmarks/results/BENCH_paper_core.json``.
"""

import copy
import json
import os

import pytest

from repro.__main__ import main
from repro.bench import BENCH_SCHEMA_VERSION, compare_records, load_record, write_record
from repro.bench.compare import (
    E2E_KIND,
    EXIT_INCOMPARABLE,
    EXIT_OK,
    EXIT_REGRESSION,
    KINDS,
    validate_e2e_record,
)
from repro.bench.runner import percentile
from repro.bench.shard import (
    SHARD_BENCH_KIND,
    SHARD_BENCH_STRUCTURES,
    SHARD_BENCH_WORKLOADS,
    SHARD_DEFAULT_PARAMS,
)
from repro.metric_names import DISK_ACCESSES, PAPER_METRICS

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
COMMITTED = os.path.join(ROOT, "benchmarks", "results", "BENCH_paper_core.json")
FIRST_FULL_RECORD = os.path.join(
    ROOT, "benchmarks", "e2e", "results", "BENCH_e2e_c1b3002.json"
)

COUNTS = {
    "core.disk_accesses_per_query.rstar.window": 3.25,
    "core.segment_comps_per_op.pmr": 41.5,
    "storage.index_pages.rplus": 1200,
    "wal.fsyncs_per_mutation": 0,  # a layer paper_core does not run
}
TIMINGS = {
    "core.query_us.rstar.window": ("us", 80.0),
    "build_s": ("s", 28.0),
    "core.vector_batch_speedup.pmr": ("ratio", 0.32),
}


def e2e_record():
    metrics = {name: {"unit": "count", "value": v} for name, v in COUNTS.items()}
    metrics.update(
        {name: {"unit": u, "value": v} for name, (u, v) in TIMINGS.items()}
    )
    per_layer = {"seed": 1992, "attempted": 64900, "failed": 0, "metrics": metrics}
    return {
        "config": {"county": "charles", "scale": 1.0, "page_size": 1024},
        "nproc": 2,
        "workloads": {"paper_core": {"per_layer": per_layer}},
    }


def routed_record():
    counters = dict.fromkeys(PAPER_METRICS, 100)
    wall = {"p50_ms": 1.0, "p90_ms": 2.0, "max_ms": 3.0}
    entry = {
        "workloads": {
            w: {**counters, "wall": dict(wall)} for w in SHARD_BENCH_WORKLOADS
        },
        "totals": dict.fromkeys(PAPER_METRICS, 100 * len(SHARD_BENCH_WORKLOADS)),
    }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": SHARD_BENCH_KIND,
        "git_sha": "0000000",
        "params": dict(SHARD_DEFAULT_PARAMS),
        "structures": {s: copy.deepcopy(entry) for s in SHARD_BENCH_STRUCTURES},
    }


def metrics_of(record):
    return record["workloads"]["paper_core"]["per_layer"]["metrics"]


@pytest.fixture
def record():
    return e2e_record()


class TestRecordSchema:
    def test_fresh_record_validates(self, record):
        assert validate_e2e_record(record) == []
        assert validate_e2e_record(load_record(COMMITTED)) == []

    def test_every_structure_and_workload_present(self):
        """The committed record gates the paper's quantities for every
        structure and query type, and they are the first full record's."""
        committed = dict(KINDS[E2E_KIND].gate_points(load_record(COMMITTED)))
        expected = {
            f"core.disk_accesses_per_query.{s}.{q}"
            for s in ("rstar", "rplus", "pmr")
            for q in ("point", "point2", "nearest", "window", "polygon")
        } | {
            f"{metric}.{s}"
            for metric in (
                "core.segment_comps_per_op",
                "core.bbox_comps_per_op",
                "storage.index_pages",
            )
            for s in ("rstar", "rplus", "pmr")
        }
        assert {name for name, value in committed.items() if value} == expected
        first = dict(KINDS[E2E_KIND].gate_points(load_record(FIRST_FULL_RECORD)))
        assert committed == first

    def test_validator_catches_damage(self, record):
        assert validate_e2e_record([]) != []
        assert validate_e2e_record({"workloads": {}}) != []
        broken = copy.deepcopy(record)
        metrics_of(broken)["build_s"] = 28.0
        assert any("build_s" in p for p in validate_e2e_record(broken))
        broken = copy.deepcopy(record)
        for name in COUNTS:
            del metrics_of(broken)[name]
        assert any("no count-unit" in p for p in validate_e2e_record(broken))
        broken = copy.deepcopy(record)
        broken["workloads"]["paper_core"]["per_layer"]["failed"] = 3
        assert any("failed" in p for p in validate_e2e_record(broken))

    def test_write_and_load_round_trip(self, record, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        write_record(record, path)
        assert load_record(path) == record
        with open(path) as fh:  # committed baselines must be stable JSON
            assert json.load(fh) == record


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 0.01) == 1.0


class TestRegressionGate:
    def test_identical_records_pass(self, record):
        code, lines = compare_records(record, copy.deepcopy(record))
        assert code == EXIT_OK
        assert any(f"compared {len(COUNTS)} counters at 0%" in line for line in lines)
        assert any("no counter regressed" in line for line in lines)

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_one_counter_raised_by_one_fails_naming_it(self, record, name):
        bad = copy.deepcopy(record)
        metrics_of(bad)[name]["value"] += 1
        # the paper-scale counters are noise-free: no headroom, whatever
        # tolerance the caller asks for
        code, lines = compare_records(record, bad, tolerance=0.5)
        assert code == EXIT_REGRESSION
        assert [line for line in lines if "REGRESSION" in line and name in line]
        assert any(line.startswith("1 regression(s)") for line in lines)

    def test_doctored_twenty_percent_worse_fails(self):
        baseline = load_record(COMMITTED)
        bad = copy.deepcopy(baseline)
        for m in metrics_of(bad).values():
            if m["unit"] == "count":
                m["value"] *= 1.2
        code, lines = compare_records(baseline, bad, tolerance=0.10)
        assert code == EXIT_REGRESSION
        assert any(line.startswith("24 regression(s)") for line in lines)

    def test_within_tolerance_passes(self):
        """Only the routed record has headroom; beyond it, it fails."""
        base = routed_record()
        for factor, expected in ((1.05, EXIT_OK), (1.2, EXIT_REGRESSION)):
            fresh = copy.deepcopy(base)
            totals = fresh["structures"]["R*"]["totals"]
            totals[DISK_ACCESSES] = int(totals[DISK_ACCESSES] * factor)
            code, _ = compare_records(base, fresh, tolerance=0.10)
            assert code == expected

    def test_improvement_passes_and_is_reported(self, record):
        better = copy.deepcopy(record)
        metrics_of(better)["storage.index_pages.rplus"]["value"] -= 1
        code, lines = compare_records(record, better)
        assert code == EXIT_OK
        assert any(
            "improved storage.index_pages.rplus: 1200 -> 1199" in line
            for line in lines
        )

    def test_zero_baseline_tolerates_only_zero(self, record):
        bad = copy.deepcopy(record)
        metrics_of(bad)["wal.fsyncs_per_mutation"]["value"] = 0.001
        code, lines = compare_records(record, bad)
        assert code == EXIT_REGRESSION
        assert any("wal.fsyncs_per_mutation" in line for line in lines)

    def test_timing_metrics_never_gate(self, record):
        slow = copy.deepcopy(record)
        for name in ("core.query_us.rstar.window", "build_s"):
            metrics_of(slow)[name]["value"] *= 100
        metrics_of(slow)["core.vector_batch_speedup.pmr"]["value"] /= 100
        code, lines = compare_records(record, slow)
        assert code == EXIT_OK
        assert not any(name in line for name in TIMINGS for line in lines)

    def test_routed_latency_growth_only_warns(self):
        slower = routed_record()
        slower["structures"]["PMR"]["workloads"]["window"]["wall"]["p50_ms"] *= 100
        code, lines = compare_records(routed_record(), slower, tolerance=0.10)
        assert code == EXIT_OK
        assert any("warn" in line and "PMR/window/p50_ms" in line for line in lines)

    def test_param_mismatch_is_incomparable_not_regression(self, record):
        for damage in (
            lambda r: r["config"].update(page_size=2048),
            lambda r: r["config"].pop("scale"),
            lambda r: r["workloads"]["paper_core"]["per_layer"].update(seed=7),
        ):
            other = copy.deepcopy(record)
            damage(other)
            metrics_of(other)["storage.index_pages.rplus"]["value"] += 1
            code, lines = compare_records(record, other)
            assert code == EXIT_INCOMPARABLE
            assert any("not comparable" in line for line in lines)

    def test_schema_mismatch_is_incomparable(self):
        other = routed_record()
        other["schema_version"] = BENCH_SCHEMA_VERSION + 1
        code, _ = compare_records(routed_record(), other, tolerance=0.10)
        assert code == EXIT_INCOMPARABLE

    def test_record_without_paper_core_per_layer_is_incomparable(self, record):
        end_to_end_only = copy.deepcopy(record)
        run = end_to_end_only["workloads"]["paper_core"]
        run["end_to_end"] = run.pop("per_layer")  # written without --trace
        other_workload = copy.deepcopy(record)
        other_workload["workloads"]["serve_read"] = other_workload[
            "workloads"
        ].pop("paper_core")
        for fresh in (end_to_end_only, other_workload):
            code, lines = compare_records(record, fresh)
            assert code == EXIT_INCOMPARABLE
            assert any("paper_core.per_layer" in line for line in lines)

    def test_routed_record_against_paper_scale_record_is_incomparable(self, record):
        for pair in ((record, routed_record()), (routed_record(), record)):
            code, lines = compare_records(*pair)
            assert code == EXIT_INCOMPARABLE
            assert any("kind mismatch" in line for line in lines)


class TestBenchCommand:
    """``python -m repro bench --compare BASELINE RECORD`` exits with the
    verdict: 0 clean, 1 regression, 2 not comparable / unusable."""

    @pytest.fixture
    def paths(self, record, tmp_path):
        def path_of(name, rec):
            path = str(tmp_path / name)
            write_record(rec, path)
            return path

        raised = copy.deepcopy(record)
        metrics_of(raised)["core.segment_comps_per_op.pmr"]["value"] += 1
        other_config = copy.deepcopy(record)
        other_config["config"]["scale"] = 0.02
        return {
            "same": path_of("same.json", record),
            "raised": path_of("raised.json", raised),
            "other_config": path_of("other_config.json", other_config),
            "missing": str(tmp_path / "absent.json"),
        }

    @pytest.mark.parametrize(
        "fresh, expected",
        [
            ("same", EXIT_OK),
            ("raised", EXIT_REGRESSION),
            ("other_config", EXIT_INCOMPARABLE),
            ("missing", EXIT_INCOMPARABLE),
        ],
    )
    def test_exit_code_is_the_verdict(self, paths, fresh, expected, capsys):
        assert main(["bench", "--compare", paths["same"], paths[fresh]]) == expected
        out = capsys.readouterr()
        if fresh == "raised":
            assert "REGRESSION core.segment_comps_per_op.pmr: 41.5 -> 42.5" in out.out
        if fresh == "missing":
            assert "record not found" in out.err

    def test_a_record_to_gate_or_routed_is_required(self, paths, capsys):
        for argv in (
            ["bench"],
            ["bench", "--compare", paths["same"]],
            ["bench", paths["same"]],
            ["bench", "--routed", "--compare", paths["same"], paths["same"]],
        ):
            assert main(argv) == EXIT_INCOMPARABLE
            assert "benchmarks/e2e/run.py" in capsys.readouterr().err
