"""The CLI wires the same objects in a real process.

Every other suite builds its engines, servers and routers in-process.
This one starts them the way an operator -- and ``benchmarks/e2e`` --
does: ``python -m repro <launcher>`` as a child process on an ephemeral
port, its address read from the banner. It checks only what a process
has and an in-process fixture cannot show: that each launcher hands its
flags to the objects the other suites test, that the client subcommands
reach it and exit 0, that Ctrl-C ends it with exit 0 and the lock
sanitizer's verdict, and what a SIGKILL leaves behind.

Every wait has a deadline (``ServerProcess``, ``run_cli`` and every
socket carry a timeout) and the ``spawn`` fixture reaps whatever a
failed test leaves running, so nothing here relies on pytest-timeout.
"""

import asyncio
import json
import os
import random
import re
import shutil
import signal

import pytest

from repro.aio import AsyncMapClient
from repro.obs import parse_prom_text
from repro.service import send_request

from tests.conftest import run_cli

MAP = ("--county", "cecil", "--scale", "0.01")
SHARDS = ("s0", "s1", "s2")
WORLD = 16384.0
WHOLE_MAP = {"op": "window", "x1": 0.0, "y1": 0.0, "x2": WORLD, "y2": WORLD}


def ok(done):
    """A finished ``run_cli`` child that must have exited 0; its stdout."""
    assert done.returncode == 0, (
        f"repro {' '.join(done.args)} exited {done.returncode}:\n"
        f"{done.stdout}\n{done.stderr}"
    )
    return done.stdout


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("snap") / "cecil.snap")
    out = ok(run_cli("snapshot", *MAP, "--structure", "R*", "--out", path))
    assert "pages ->" in out
    sizes = re.search(
        r"header (\d+) bytes \+ page area (\d+) bytes: [\d.]+ bytes/segment", out
    )
    assert int(sizes[1]) + int(sizes[2]) == os.path.getsize(path), out
    return path


@pytest.fixture(scope="module")
def shard_set(tmp_path_factory):
    """A three-shard set, built once; tests serve (and damage) a copy."""
    root = str(tmp_path_factory.mktemp("shards") / "set")
    out = ok(
        run_cli(
            "shard-init", *MAP, "--structure", "R*", "--root", root,
            "--n-shards", str(len(SHARDS)), "--page-size", "2048",
        )
    )
    assert "initialised 3-shard R* set" in out
    return root


def start_worker(spawn, root, shard):
    return spawn(
        "shard-worker", "--root", root, "--shard", shard, "--port", "0",
        "--sanitize", "--trace-sample", "1.0",
    )


def engines(address):
    """The ``stats`` of every engine behind ``address``: the server's
    own, or one per shard behind a router."""
    stats = send_request(address, {"op": "stats"})["result"]
    return list(stats["shards"].values()) if "shards" in stats else [stats]


def sanitizer_reports(address):
    """The sanitizer block of every engine behind ``address``."""
    return [engine.get("sanitizer") for engine in engines(address)]


def seeded_mix(seed, n=20):
    """``n`` requests at seeded sites inside the map, taking turns at
    point, window, nearest and the insert of a short segment."""
    rng = random.Random(seed)
    requests = []
    for i in range(n):
        x, y = rng.uniform(0, WORLD - 100), rng.uniform(0, WORLD - 100)
        requests.append([
            {"op": "point", "x": x, "y": y},
            {"op": "window", "x1": x, "y1": y, "x2": x + 100, "y2": y + 100},
            {"op": "nearest", "x": x, "y": y, "k": 3},
            {"op": "insert", "x1": x, "y1": y, "x2": x + 2, "y2": y + 2},
        ][i % 4])
    return requests


def pipelined(address, requests):
    """Send every request at once over one v2 connection; the answers in
    request order."""

    async def gather():
        client = await AsyncMapClient.connect(address)
        try:
            return await asyncio.wait_for(
                asyncio.gather(*map(client.request, requests)), 30.0
            )
        finally:
            await client.close()

    return asyncio.run(gather())


def drive(address, durable):
    """What every front a client connects to (``serve`` or ``route``)
    must do, whatever is behind it: answer on both wires, carry a
    mutating load pipelined over v2 without an error, with the engines'
    own ``stats`` moving as that load says, and answer ``stats``,
    ``profile`` and ``explain --port``, each client a ``python -m
    repro`` child too."""
    port = str(address[1])
    pong = send_request(address, {"op": "ping", "v": 1})
    assert (pong["ok"], pong["result"], pong["v"]) == (True, "pong", 1)

    requests = seeded_mix(seed=0)
    inserts = sum(request["op"] == "insert" for request in requests)

    before = engines(address)
    answers = pipelined(address, requests)
    after = engines(address)
    assert [answer["ok"] for answer in answers] == [True] * len(requests), answers
    assert all(engine["counters_consistent"] for engine in after)

    def moved(name):
        return sum(e.get("wal", {}).get(name, 0) for e in after) - sum(
            e.get("wal", {}).get(name, 0) for e in before
        )

    # Every engine logs every insert (a shard's table is a replica); an
    # ack waits for an fsync covering its record, and commits that
    # arrive during one share the next.
    appends, fsyncs = moved("log_appends"), moved("fsyncs")
    assert appends == (inserts * len(after) if durable else 0)
    assert (0 < fsyncs <= appends) if durable else fsyncs == 0

    json.loads(ok(run_cli("stats", "--port", port, "--format", "json")))
    families = parse_prom_text(ok(run_cli("stats", "--port", port, "--format", "prom")))
    assert "repro_op_latency_seconds" in families
    traces = ok(run_cli("stats", "--port", port, "--format", "traces"))
    assert "traverse" in traces  # real span trees, not "(no buffered traces)"

    done = run_cli("profile", "--port", port, "--seconds", "0.2")
    ok(done)
    assert "samples over" in done.stderr
    assert done.stdout.strip(), "no collapsed stacks"

    plan = ok(
        run_cli(
            "explain", "window", "--port", port,
            "--x1", "0", "--y1", "0", "--x2", "5000", "--y2", "5000",
        )
    )
    assert "attribution exact: True" in plan
    return families, traces, done.stdout


def interrupt(*children):
    """Ctrl-C each: exit 0, and the sanitizer watched and found no cycle."""
    for child in children:
        assert child.stop(signal.SIGINT) == 0, child.output
        assert "lock sanitizer:" in child.output, child.output
        assert " 0 potential deadlock(s)" in child.output, child.output


# `serve` is the asyncio server with or without --async: "wal-async"
# passes the inert flag as the benchmark does, so its spelling stays
# accepted.
@pytest.mark.parametrize("front", ["plain", "wal", "wal-async"])
def test_serve(front, spawn, snapshot, tmp_path):
    flags = {
        "plain": [],
        "wal": ["--wal", str(tmp_path / "store")],
        "wal-async": ["--wal", str(tmp_path / "store"), "--async"],
    }[front]
    durable = front.startswith("wal")
    server = spawn(
        "serve", "--snapshot", snapshot, "--port", "0", "--sanitize",
        "--trace-sample", "1", "--slow-ms", "250", *flags,
    )
    address = server.address

    # The registry `metrics` serves is the one the engine observes into:
    # the per-op histogram counts exactly what this test sent.
    sent = {"point": 7, "window": 3}
    for _ in range(sent["point"]):
        assert send_request(address, {"op": "point", "x": 37.0, "y": 91.0})["ok"]
    for _ in range(sent["window"]):
        assert send_request(address, {**WHOLE_MAP, "x2": 500.0, "y2": 500.0})["ok"]
    prom = ok(run_cli("stats", "--port", str(address[1]), "--format", "prom"))
    counted = {
        labels["op"]: value
        for name, labels, value in parse_prom_text(prom)[
            "repro_op_latency_seconds"
        ]["samples"]
        if name.endswith("_count")
    }
    assert {op: counted[op] for op in sent} == sent

    # --wal made the engine durable: drive() checks its inserts were logged.
    drive(address, durable)
    stats = send_request(address, {"op": "stats"})["result"]
    assert stats["index"]["kind"] == "R*"
    assert stats["durable"] is durable
    assert stats["counters_consistent"] is True
    assert stats["obs"]["tracing"]["enabled"] is True  # --trace-sample
    assert stats["obs"]["tracing"]["sample_rate"] == 1.0
    assert stats["obs"]["slow_queries"]["threshold_ms"] == 250.0  # --slow-ms
    (sanitizer,) = sanitizer_reports(address)  # --sanitize
    assert sanitizer["enabled"] and sanitizer["acquisitions"] > 0
    interrupt(server)


def test_serve_with_a_slow_threshold_alone(spawn, snapshot):
    """``--slow-ms`` without ``--trace-sample`` is tracing at rate 0: the
    slow log is the tracer's view, so every entry names a trace the same
    server resolves -- and nothing else is retained."""
    server = spawn("serve", "--snapshot", snapshot, "--port", "0", "--slow-ms", "0")
    address = server.address
    reply = send_request(address, {**WHOLE_MAP, "use_cache": False})
    assert reply["ok"] and reply["tc"]["f"] == 0  # identified, not sampled
    stats = send_request(address, {"op": "stats"})["result"]
    assert stats["obs"]["tracing"]["enabled"] is True
    assert stats["obs"]["tracing"]["sample_rate"] == 0.0
    slow = stats["obs"]["slow_queries"]
    assert sorted(slow) == ["buffered", "capacity", "entries", "recorded", "threshold_ms"]
    assert slow["threshold_ms"] == 0.0 and slow["recorded"] >= slow["buffered"] >= 1
    assert reply["tc"]["t"] in {entry["trace_id"] for entry in slow["entries"]}
    for entry in slow["entries"]:
        assert sorted(entry) == ["attrs", "ms", "op", "trace_id", "unix_time"]
        tree = ok(
            run_cli(
                "stats", "--port", str(address[1]), "--format", "traces",
                "--trace-id", entry["trace_id"],
            )
        )
        assert entry["trace_id"] in tree and "retained=slow" in tree
    assert server.stop(signal.SIGINT) == 0, server.output


# "threaded" is `route` without the inert --async: the same asyncio router.
@pytest.mark.parametrize("front", ["threaded", "async"])
def test_route_over_shard_workers(front, spawn, shard_set, tmp_path):
    root = shutil.copytree(shard_set, str(tmp_path / "set"))
    workers = [start_worker(spawn, root, shard) for shard in SHARDS]
    router = spawn(
        "route", "--root", root, "--port", "0", "--sanitize",
        "--trace-sample", "1.0", *(["--async"] if front == "async" else []),
    )
    address = router.address
    assert f"routing {len(SHARDS)} shard(s)" in router.output

    # The router, with or without the inert --async, takes the v2
    # upgrade and answers on it as on v1 lines; a worker is the threaded
    # server, which answers v1 lines and refuses the upgrade.
    reads = [
        WHOLE_MAP,
        {"op": "point", "x": 5000.0, "y": 5000.0},
        {"op": "nearest", "x": 8000.0, "y": 3000.0, "k": 4},
    ]

    def untraced(envelope):
        return {key: value for key, value in envelope.items() if key != "tc"}

    lines = [untraced(send_request(address, r)) for r in reads]
    assert all(line["ok"] for line in lines), lines
    assert [untraced(e) for e in pipelined(address, reads)] == lines
    for worker in workers:
        assert all(send_request(worker.address, r)["ok"] for r in reads)
        with pytest.raises(ConnectionError, match="refused the v2 upgrade"):
            pipelined(worker.address, reads)

    # --trace-sample armed every process: the reply names its trace, and
    # the router serves it back stitched across the worker processes.
    reply = send_request(address, {**WHOLE_MAP, "use_cache": False})
    assert reply["ok"] and reply["result"]
    stitched = ok(
        run_cli(
            "stats", "--port", str(address[1]), "--format", "traces",
            "--trace-id", reply["tc"]["t"],
        )
    )
    for shard in SHARDS:
        assert f"shard:{shard}" in stitched

    # Every shard is a durable store: each logs the fanned-out inserts.
    families, traces, stacks = drive(address, durable=True)
    assert "shard:" in traces
    assert "repro_trace_tail_discarded_total" in families
    assert "repro_trace_buffered" in families
    rooted = {line.split(";")[0] for line in stacks.splitlines()}
    assert rooted == {"router", *(f"shard:{shard}" for shard in SHARDS)}

    reports = sanitizer_reports(address)
    assert len(reports) == len(SHARDS)
    for sanitizer in reports:
        assert sanitizer["enabled"] and sanitizer["acquisitions"] > 0
        assert sanitizer["potential_deadlocks"] == []
    assert send_request(address, {"op": "check"})["result"]["clean"] is True
    assert "clean: 0 findings" in ok(run_cli("check", "--shards", root))
    interrupt(router, *workers)


def test_sigkilled_worker_degrades_diverges_and_heals(spawn, shard_set, tmp_path):
    """``LocalShardSet.stop()`` only imitates this: the worker *process*
    dies by SIGKILL with pipelined requests in flight."""
    root = shutil.copytree(shard_set, str(tmp_path / "set"))
    workers = {shard: start_worker(spawn, root, shard) for shard in SHARDS}
    router = spawn("route", "--root", root, "--port", "0", "--async")
    address = router.address
    before = send_request(address, WHOLE_MAP)["result"]

    async def under_load():
        client = await AsyncMapClient.connect(address)
        try:
            first = [asyncio.ensure_future(client.request(WHOLE_MAP)) for _ in range(16)]
            workers["s1"].stop(signal.SIGKILL)
            rest = [asyncio.ensure_future(client.request(WHOLE_MAP)) for _ in range(16)]
            return await asyncio.wait_for(asyncio.gather(*first, *rest), 60.0)
        finally:
            await client.close()

    # Every request is answered -- ok, or a structured partial -- never a
    # hang or a dropped connection.
    answers = asyncio.run(under_load())
    assert len(answers) == 32
    for answer in answers:
        if not answer["ok"]:
            assert answer["error"]["code"] == "shard_unavailable", answer
            assert answer["partial"]["shards"], answer

    degraded = send_request(address, WHOLE_MAP)
    assert not degraded["ok"]
    assert degraded["error"]["code"] == "shard_unavailable"
    assert degraded["error"]["shard"] == "s1"
    assert sorted(degraded["partial"]["shards"]) == ["s0", "s2"]
    # A mutation while the shard is down lands on the survivors only ...
    insert = {"op": "insert", "x1": 20.0, "y1": 20.0, "x2": 60.0, "y2": 60.0}
    missed = send_request(address, insert)
    assert not missed["ok"] and missed["error"]["code"] == "shard_unavailable"
    assert sorted(missed["partial"]["result"]["applied"]) == ["s0", "s2"]
    # ... which is the divergence the shard-set fsck names ...
    diverged = run_cli("check", "--shards", root)
    assert diverged.returncode == 1, diverged.stdout
    assert "SH03" in diverged.stdout
    # ... and catch-up plus a restart repairs, with the router untouched.
    assert "caught up s1" in ok(run_cli("shard-catchup", "--root", root, "--shard", "s1"))
    workers["s1"] = start_worker(spawn, root, "s1")
    healed = send_request(address, WHOLE_MAP)
    assert healed["ok"] and len(healed["result"]) == len(before) + 1
    assert send_request(address, {"op": "check"})["result"]["clean"] is True
    assert "clean: 0 findings" in ok(run_cli("check", "--shards", root))
    assert router.stop(signal.SIGINT) == 0, router.output
    interrupt(*workers.values())


_WORKER_IMPORTS = """
import json, os, signal, sys, threading
signal.signal(signal.SIGINT, signal.default_int_handler)
from repro.__main__ import _serve
from repro.service import send_request
from repro.shard import serve_shard

server = serve_shard(sys.argv[1], "s0")

def ping_then_interrupt():
    ok = send_request(server.address, {"op": "ping"})["ok"]
    print(json.dumps({"pinged": ok}), flush=True)
    os.kill(os.getpid(), signal.SIGINT)

threading.Thread(target=ping_then_interrupt, daemon=True).start()
code = _serve(server, "worker", "", server.server_close, server.engine.store.close)
loaded = sorted(m for m in sys.modules if m == "asyncio" or m.startswith("repro.aio"))
print(json.dumps({"exit": code, "loaded": loaded}), flush=True)
"""


def test_a_shard_worker_never_loads_asyncio(shard_set, tmp_path):
    """A worker serves from the threaded server: opening it through
    ``serve_shard`` and serving it through the CLI's ``_serve`` until
    Ctrl-C loads neither asyncio nor ``repro.aio``."""
    import subprocess
    import sys

    root = shutil.copytree(shard_set, str(tmp_path / "set"))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORTS, root],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    lines = [json.loads(line) for line in child.stdout.splitlines() if line[:1] == "{"]
    assert lines[0] == {"pinged": True}
    assert lines[-1] == {"exit": 0, "loaded": []}
