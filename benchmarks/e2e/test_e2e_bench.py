"""The benchmark's own test: plumbing, not speed.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

Runs every workload in both modes with ``--quick`` (a 1 000-segment map,
a second of load each; about half a minute in all) and checks what the
driver relies on: the registry is well formed, every registered metric
and workload is emitted once with its unit, streams are a function of
the seed, and nothing -- process, port, directory -- outlives a run,
including one that fails half-way.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import re
import socket
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e import service  # noqa: E402
from benchmarks.e2e.config import QUICK, WORKLOADS  # noqa: E402
from benchmarks.e2e.layers import Spans  # noqa: E402
from benchmarks.e2e.procs import BUILD_DIR  # noqa: E402
from benchmarks.e2e.streams import request_stream  # noqa: E402
from repro.data import generate_county  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LINE = re.compile(r"^(\S+) (\S+) (-?[0-9.eE+-]+|nan|inf) (\S+)(  # .*)?$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    REGISTRY = json.load(_fh)


def leftovers():
    """Scratch directories and children (the system's processes, the
    reference service) of any benchmark run."""
    dirs = glob.glob(os.path.join(BUILD_DIR, "run-*"))
    procs = []
    for path in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(path, "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue  # the process ended while we looked
        system = " -m repro " in cmdline and BUILD_DIR in cmdline
        if system or os.path.join(HERE, "reference.py") in cmdline:
            procs.append(cmdline)
    return dirs, procs


@pytest.fixture(scope="module")
def quick_runs():
    """stdout of every workload in both modes, and what was left behind."""
    runs = {}
    for workload, trace in itertools.product(WORKLOADS, (0, 1)):
        done = subprocess.run(
            [*REGISTRY["command"], "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--quick"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        runs[workload, trace] = done.stdout.strip().splitlines()
    return runs, leftovers()


def test_registry_is_well_formed():
    assert set(REGISTRY) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    # The registered workloads are the ones the driver's time cap leaves
    # room to measure steadily; the command runs the others just the same.
    assert 2 <= len(REGISTRY["workloads"]) <= 8
    assert {w["name"] for w in REGISTRY["workloads"]} <= set(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in REGISTRY["workloads"])
    names = [m["name"] for m in REGISTRY["end_to_end"] + REGISTRY["per_layer"]]
    names += [w["name"] for w in REGISTRY["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 1 <= len(REGISTRY["end_to_end"]) <= 16 and 1 <= len(REGISTRY["per_layer"]) <= 128
    for metric in REGISTRY["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in REGISTRY["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in REGISTRY["end_to_end"] + REGISTRY["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in REGISTRY["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in REGISTRY["end_to_end"])
    assert isinstance(REGISTRY["run_seconds"], int) and 1 <= REGISTRY["run_seconds"] <= 60
    assert REGISTRY["paths"] == ["benchmarks/e2e"]


def test_every_metric_is_emitted_once_with_its_unit(quick_runs):
    runs, _ = quick_runs
    measured_layers = set()
    for (workload, trace), lines in runs.items():
        section = REGISTRY["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in section}
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], float) and metric["value"] == metric["value"]
        printed = [LINE.match(line).groups() for line in lines[:-1] if not line.startswith("#")]
        assert all(p[0] == workload and NAME.match(p[1]) and UNIT.match(p[3]) for p in printed)
        names = [p[1] for p in printed]
        assert len(names) == len(set(names)), "a metric was printed twice"
        registered = [n for n in names if n in units]
        if trace:
            measured_layers.update(registered)
        else:
            assert registered == list(units)
            assert all(result["metrics"][n]["value"] > 0 for n in units)
            assert "error_rate" in names
    assert measured_layers == {m["name"] for m in REGISTRY["per_layer"]}, \
        "a per-layer metric is measured by no workload"


def test_streams_are_a_function_of_the_seed():
    map_data = generate_county(QUICK.county, scale=QUICK.scale)

    def head(workload, seed, conn=0):
        stream = request_stream(workload, map_data, QUICK, seed, conn)
        return json.dumps(list(itertools.islice(stream, 500))).encode()

    for workload in ("serve_read", "durable_rw", "routed_mixed"):
        assert head(workload, 7) == head(workload, 7)
        assert head(workload, 7) != head(workload, 8)
        assert head(workload, 7, conn=0) != head(workload, 7, conn=1)


def test_nothing_outlives_a_run(quick_runs):
    _, (dirs, procs) = quick_runs
    assert dirs == [] and procs == []


@pytest.mark.parametrize("workload", ["durable_rw", "routed_mixed"])
def test_nothing_outlives_a_failed_run(workload, monkeypatch):
    seen = {}

    async def fail_mid_way(session, *args):
        seen["address"] = session.address
        await session.connect()  # the system is up and has connections
        raise RuntimeError("injected failure")

    monkeypatch.setattr(service, "_drive", fail_mid_way)
    with pytest.raises(RuntimeError, match="injected failure"):
        service.run(workload, QUICK, 7, 1.0, False, Spans())
    assert leftovers() == ([], [])
    with pytest.raises(OSError):
        socket.create_connection(seen["address"], timeout=2.0).close()
