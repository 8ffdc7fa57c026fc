"""Tests for the ``python -m repro`` command-line driver."""

import inspect
import json
import socket
import socketserver
import threading

import pytest

from repro.__main__ import main
from repro.aio import AsyncMapServer
from repro.core.pmr import PMRQuadtree
from repro.obs import Tracer
from repro.service import MapServer
from repro.shard import ShardRouter
from repro.storage import StorageContext


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


SCALE = ("--scale", "0.01")

#: Every subcommand: ``report`` is the one that reproduces the paper.
SUBCOMMANDS = {
    "generate", "report", "snapshot", "checkpoint", "recover",
    "shard-init", "shard-split", "shard-catchup", "serve", "shard-worker",
    "route", "stats", "profile", "explain", "bench", "check", "lint",
}


class TestSurface:
    """An option or entry point exists only where a caller needs it."""

    def test_help_offers_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        usage = capsys.readouterr().out
        offered = usage[usage.index("{") + 1 : usage.index("}")].split(",")
        assert len(offered) == len(SUBCOMMANDS)
        assert set(offered) == SUBCOMMANDS

    def test_a_per_artefact_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["table1"])
        assert exit_.value.code == 2
        assert "invalid choice: 'table1'" in capsys.readouterr().err

    def test_the_pmr_has_no_curve(self):
        with pytest.raises(TypeError):
            PMRQuadtree(StorageContext.create(), curve="morton")

    @pytest.mark.parametrize(
        "cls", [PMRQuadtree, AsyncMapServer, MapServer, ShardRouter, Tracer]
    )
    def test_no_constructor_takes_a_limit_only_tests_set(self, cls):
        gone = {
            "curve", "max_line_bytes", "max_frame_bytes", "max_inflight_per_conn",
            "max_inflight_total", "executor_workers", "max_events",
        }
        assert not gone & set(inspect.signature(cls).parameters)

    @pytest.mark.parametrize(
        "func",
        [
            "repro.wal.log:WriteAheadLog.__init__",
            "repro.wal.log:WriteAheadLog.create",
            "repro.wal.log:WriteAheadLog.open",
            "repro.wal.crashtest:build_live_store",
            "repro.shard:init_shard_set",
            "repro.shard:open_shard",
            "repro.shard:serve_shard",
            "repro.shard:split_shard",
            "repro.shard:catch_up_shard",
            "repro.shard:LocalShardSet",
        ],
    )
    def test_no_shard_or_log_signature_takes_a_setting_no_caller_sets(self, func):
        """Every commit fsyncs before its ack, so the log has no batch
        threshold, and a worker opens its shard one way."""
        import importlib

        module, _, path = func.partition(":")
        target = importlib.import_module(module)
        for attr in path.split("."):
            target = getattr(target, attr)
        params = set(inspect.signature(target).parameters)
        gone = {"group_commit", "cache_capacity", "checkpoint", "kwargs"}
        if func != "repro.shard:init_shard_set":  # sizes the build's pool
            gone.add("pool_pages")
        assert not gone & params


class TestCLI:
    def test_generate(self, capsys):
        rc, out = run_cli(capsys, "generate", "--county", "garrett", *SCALE)
        assert rc == 0
        assert "garrett" in out
        assert "degrees" in out
        assert "noded planar map: True" in out

    def test_a_refused_snapshot_is_reported_and_replaces_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.__main__ as cli
        from repro.core.rtree import RStarTree
        from repro.data import generate_county

        # A node its page cannot hold (the R+ overflow on a county map):
        # the page codec refuses it in the middle of the write.
        ctx = StorageContext.create()
        tree = RStarTree(ctx, capacity=80)
        for seg_id in ctx.load_segments(generate_county("cecil", 0.01).segments[:80]):
            tree.insert(seg_id)
        monkeypatch.setattr(cli, "_build", lambda args: tree)
        victim = tmp_path / "victim.snap"
        victim.write_bytes(b"an earlier snapshot")
        rc = main([
            "snapshot", "--county", "cecil", *SCALE,
            "--structure", "R*", "--out", str(victim),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith(
            "error: cannot save R* snapshot: node with 80 entries needs "
        )
        assert captured.err.endswith("; page is 1024\n")
        assert victim.read_bytes() == b"an earlier snapshot"
        assert [p.name for p in tmp_path.iterdir()] == ["victim.snap"]

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestShardCLI:
    def _init(self, capsys, tmp_path, n_shards="3"):
        root = str(tmp_path / "shards")
        rc, out = run_cli(
            capsys,
            "shard-init",
            "--root",
            root,
            "--county",
            "cecil",
            "--scale",
            "0.01",
            "--structure",
            "PMR",
            "--n-shards",
            n_shards,
            "--page-size",
            "2048",
        )
        assert rc == 0
        return root, out

    def test_shard_init_reports_ranges(self, capsys, tmp_path):
        root, out = self._init(capsys, tmp_path)
        assert "initialised 3-shard PMR set" in out
        assert "s0: cells [0," in out

    def test_check_shards_clean(self, capsys, tmp_path):
        root, _ = self._init(capsys, tmp_path)
        rc, out = run_cli(capsys, "check", "--shards", root)
        assert rc == 0
        assert "clean: 0 findings" in out

    def test_check_shards_missing_dir(self, capsys, tmp_path):
        rc = main(["check", "--shards", str(tmp_path / "nope")])
        assert rc == 2

    def test_shard_split_bumps_epoch(self, capsys, tmp_path):
        root, _ = self._init(capsys, tmp_path)
        rc, out = run_cli(capsys, "shard-split", "--root", root, "--shard", "s1")
        assert rc == 0
        assert "split s1 -> s1a, s1b" in out
        assert "epoch 2" in out
        rc, out = run_cli(capsys, "check", "--shards", root)
        assert rc == 0

    def test_shard_catchup_noop(self, capsys, tmp_path):
        root, _ = self._init(capsys, tmp_path)
        rc, out = run_cli(capsys, "shard-catchup", "--root", root, "--shard", "s0")
        assert rc == 0
        assert "caught up s0" in out and "0 record(s)" in out

    def test_shard_split_unknown_shard_exits(self, capsys, tmp_path):
        root, _ = self._init(capsys, tmp_path)
        with pytest.raises(SystemExit):
            main(["shard-split", "--root", root, "--shard", "zz"])


#: Options that used to parse and do nothing: (the rest of a valid
#: command line, the flag nothing read).
IGNORED = [
    (cmd, "--queries")
    for cmd in (
        ["generate"],
        ["snapshot", "--out", "x.snap"], ["serve"],
        ["shard-init", "--root", "x"], ["explain", "point"], ["check"],
    )
] + [
    (cmd, "--county")
    for cmd in (["report"],)
] + [
    (["checkpoint", "--wal", "x"], "--group-commit"),
    (["recover", "--wal", "x"], "--group-commit"),
    # Every server traverses one way: the traversal knob is gone.
    (["serve"], "--backend"),
    (["shard-worker", "--root", "x", "--shard", "s0"], "--backend"),
]


class TestEveryAcceptedOptionActs:
    @pytest.mark.parametrize(
        "argv, flag", IGNORED, ids=[f"{c[0]}{f}" for c, f in IGNORED]
    )
    def test_an_option_nothing_reads_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, flag, "1"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    #: A map-building command line with a value no map can have: it used
    #: to end in a traceback and exit 1 (which ``check`` keeps for error
    #: findings), or in a report of zeros.
    BAD_VALUES = [
        (["generate"], "--county", "nosuch"),
        (["report"], "--scale", "0"),
        (["snapshot", "--out", "x.snap"], "--scale", "0"),
        (["explain", "point"], "--scale", "0"),
        (["shard-init", "--root", "x"], "--scale", "0"),
        (["check"], "--scale", "2"),
        (["generate"], "--scale", "nan"),
        (["report"], "--queries", "0"),
        (["report"], "--queries", "-5"),
    ]

    @pytest.mark.parametrize(
        "argv, flag, value",
        BAD_VALUES,
        ids=[f"{c[0]}{f}={v}" for c, f, v in BAD_VALUES],
    )
    def test_a_value_no_map_can_have_is_a_usage_error(
        self, capsys, argv, flag, value
    ):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, flag, value])
        assert exit_.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    #: The three launchers, each with what it requires and nothing else.
    LAUNCHERS = {
        "serve": ["serve"],
        "shard-worker": ["shard-worker", "--root", "x", "--shard", "s0"],
        "route": ["route", "--root", "x"],
    }

    @pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
    def test_a_ring_size_with_nothing_to_retain_is_a_usage_error(
        self, capsys, launcher
    ):
        """``--trace-capacity`` sizes the ring ``--trace-sample`` and
        ``--slow-ms`` fill; alone it used to parse and do nothing."""
        with pytest.raises(SystemExit) as exit_:
            main([*self.LAUNCHERS[launcher], "--trace-capacity", "8"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "--trace-capacity" in err and "--slow-ms" in err

    @pytest.mark.parametrize("launcher", ["serve", "shard-worker"])
    def test_a_batched_group_commit_is_a_usage_error(self, capsys, launcher):
        """Every front acks only after an fsync covers the mutation:
        ``--group-commit`` is accepted with its one value, 1, only."""
        with pytest.raises(SystemExit) as exit_:
            main([*self.LAUNCHERS[launcher], "--group-commit", "2"])
        assert exit_.value.code == 2
        assert "argument --group-commit: invalid choice: 2" in capsys.readouterr().err

    @pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
    def test_the_second_tracer_flag_is_gone(self, capsys, launcher):
        """What ``serve --trace`` did is ``--trace-sample 1``."""
        with pytest.raises(SystemExit) as exit_:
            main([*self.LAUNCHERS[launcher], "--trace"])
        assert exit_.value.code == 2
        assert "--trace" in capsys.readouterr().err

    def test_a_slow_threshold_alone_arms_the_router(self, spawn, tmp_path):
        """``route --slow-ms T`` without ``--trace-sample`` used to arm
        nothing; it is tracing at rate 0, so the router retains its own
        slow roots -- here with no worker up, which a root does not need."""
        from repro.service import send_request

        from tests.conftest import run_cli as run_child

        root = str(tmp_path / "set")
        done = run_child(
            "shard-init", "--county", "cecil", "--scale", "0.01", "--root", root,
            "--n-shards", "2", "--page-size", "2048",
        )
        assert done.returncode == 0, done.stderr
        router = spawn("route", "--root", root, "--port", "0", "--slow-ms", "0")
        assert send_request(router.address, {"op": "ping"})["result"] == "pong"
        answer = send_request(router.address, {"op": "trace"})["result"]
        assert answer["tracing"]["enabled"] is True
        assert answer["tracing"]["sample_rate"] == 0.0
        (ping,) = [root for root in answer["traces"] if root["name"] == "ping"]
        assert ping["retained"] == "slow" and ping["sampled"] is False
        assert len(ping["trace_id"]) == 32


class _Refuses(socketserver.StreamRequestHandler):
    def handle(self):
        for _line in self.rfile:
            reply = {"ok": False, "error": {"code": "internal", "message": "boom"}}
            self.wfile.write(json.dumps(reply).encode() + b"\n")


class TestAskingARunningServer:
    """``stats``, ``profile`` and ``explain --port`` share one client
    helper: exit 2 when nobody answers, exit 1 when the answer is a
    refusal, each with the reason on stderr."""

    @staticmethod
    def argvs(port):
        return {
            "stats": ["stats", "--port", str(port)],
            "profile": ["profile", "--port", str(port), "--seconds", "0.1"],
            "explain": ["explain", "point", "--x", "1", "--y", "1", "--port", str(port)],
        }

    @pytest.mark.parametrize("command", ["stats", "profile", "explain"])
    def test_unreachable_exits_2(self, capsys, command):
        with socket.socket() as sock:  # a port nobody listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(SystemExit) as exit_:
            main(self.argvs(port)[command])
        assert exit_.value.code == 2
        assert f"cannot reach server at 127.0.0.1:{port}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "profile", "explain"])
    def test_refused_exits_1(self, capsys, command):
        with socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Refuses) as stub:
            stub.daemon_threads = True
            thread = threading.Thread(target=stub.serve_forever, daemon=True)
            thread.start()
            try:
                with pytest.raises(SystemExit) as exit_:
                    main(self.argvs(stub.server_address[1])[command])
            finally:
                stub.shutdown()
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert exit_.value.code == 1
        assert "server refused: internal: boom" in capsys.readouterr().err
