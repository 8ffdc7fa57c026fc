"""Tests for the routed perf baseline (``bench --routed``)."""

import copy
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.compare import EXIT_INCOMPARABLE, EXIT_OK, compare_records
from repro.bench.shard import (
    SHARD_BENCH_KIND,
    SHARD_BENCH_STRUCTURES,
    SHARD_BENCH_WORKLOADS,
    run_shard_bench,
    validate_shard_record,
)
from repro.metric_names import PAPER_METRICS

TINY = {"scale": 0.01, "n_queries": 3, "n_shards": 2}


@pytest.fixture(scope="module")
def record():
    return run_shard_bench(TINY)


class TestRoutedRecord:
    def test_record_validates(self, record):
        assert validate_shard_record(record) == []
        assert record["kind"] == SHARD_BENCH_KIND

    def test_every_structure_and_workload_present(self, record):
        assert set(record["structures"]) == set(SHARD_BENCH_STRUCTURES)
        for entry in record["structures"].values():
            assert set(entry["workloads"]) == set(SHARD_BENCH_WORKLOADS)
            assert entry["build"]["shards"] == TINY["n_shards"]

    def test_totals_are_workload_sums(self, record):
        for entry in record["structures"].values():
            for metric in PAPER_METRICS:
                assert entry["totals"][metric] == sum(
                    entry["workloads"][w][metric]
                    for w in SHARD_BENCH_WORKLOADS
                )

    def test_workloads_actually_ran(self, record):
        for entry in record["structures"].values():
            for w in SHARD_BENCH_WORKLOADS:
                assert entry["workloads"][w]["queries"] > 0
            # The read workloads must touch the disk counters.
            assert entry["totals"]["disk_accesses"] > 0

    def test_self_comparison_is_clean_at_zero_tolerance(self, record):
        code, lines = compare_records(record, record, tolerance=0.0)
        assert code == EXIT_OK, "\n".join(lines)


class TestGateKindSafety:
    def test_cross_kind_comparison_refused(self, record):
        paper_scale = {"config": {}, "workloads": {}}  # BENCH_e2e.json's shape
        code, lines = compare_records(paper_scale, record)
        assert code == EXIT_INCOMPARABLE
        assert any("kind mismatch" in line for line in lines)

    def test_unknown_kind_refused(self):
        bogus = {"kind": "repro-mystery-bench"}
        code, lines = compare_records(bogus, dict(bogus))
        assert code == EXIT_INCOMPARABLE

    def test_regression_detected(self, record):
        worse = copy.deepcopy(record)
        name = SHARD_BENCH_STRUCTURES[0]
        entry = worse["structures"][name]
        entry["totals"]["disk_accesses"] = (
            entry["totals"]["disk_accesses"] * 10 + 100
        )
        code, lines = compare_records(record, worse, tolerance=0.10)
        assert code == 1
        assert any("REGRESSION" in line for line in lines)

    def test_missing_workload_fails_validation(self, record):
        broken = copy.deepcopy(record)
        name = SHARD_BENCH_STRUCTURES[0]
        del broken["structures"][name]["workloads"]["mutate"]
        assert any(
            "mutate" in problem for problem in validate_shard_record(broken)
        )


class TestCommittedBaseline:
    def test_routed_counters_gate_on_the_committed_record(self, capsys):
        """``bench --routed --compare`` with the parameters the committed
        record was written with (the CLI defaults): the paper's counters
        are deterministic, so all 54 must equal it. One that reads
        *lower* is a finding too -- the ``batch`` row once read 0 for
        every structure because each member was a result-cache hit, and
        the gate called that an improvement."""
        baseline = (
            Path(__file__).parents[1] / "benchmarks/results/BENCH_shard_baseline.json"
        )
        committed = baseline.read_bytes()
        code = main(["bench", "--routed", "--compare", str(baseline), "--tolerance", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        assert "compared 54 counters at 0% tolerance" in out
        assert "OK: no counter regressed" in out
        assert "improved" not in out, out
        assert baseline.read_bytes() == committed
        for name, entry in json.loads(committed)["structures"].items():
            row = entry["workloads"]["batch"]
            assert row["segment_comps"] > 0 and row["bbox_comps"] > 0, (name, row)
