"""Tests for the ``python -m repro`` command-line driver."""

import json
import socket
import socketserver
import threading

import pytest

from repro.__main__ import main


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


SCALE = ("--scale", "0.01")
SMALL = (*SCALE, "--queries", "5")


class TestCLI:
    def test_table1(self, capsys):
        rc, out = run_cli(capsys, "table1", *SCALE)
        assert rc == 0
        assert "map name" in out and "charles" in out

    def test_table2(self, capsys):
        rc, out = run_cli(capsys, "table2", "--county", "cecil", *SMALL)
        assert rc == 0
        assert "cecil county" in out
        assert "Point1" in out and "Range" in out

    def test_figure6(self, capsys):
        rc, out = run_cli(capsys, "figure6", "--county", "cecil", *SCALE)
        assert rc == 0
        assert "page size" in out and "PMR" in out

    @pytest.mark.parametrize("figure", ["figure7", "figure8", "figure9"])
    def test_figures(self, capsys, figure):
        rc, out = run_cli(capsys, figure, *SMALL)
        assert rc == 0
        assert "min" in out and "avg" in out and "max" in out

    def test_occupancy(self, capsys):
        rc, out = run_cli(capsys, "occupancy", "--county", "cecil", *SCALE)
        assert rc == 0
        assert "threshold" in out

    def test_generate(self, capsys):
        rc, out = run_cli(capsys, "generate", "--county", "garrett", *SCALE)
        assert rc == 0
        assert "garrett" in out
        assert "degrees" in out
        assert "noded planar map: True" in out

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
        ["table1"], ["figure6"], ["occupancy"], ["generate"],
        ["snapshot", "--out", "x.snap"], ["serve"],
        ["bench-serve", "--connect", "127.0.0.1:1"],
        ["shard-init", "--root", "x"], ["explain", "point"], ["check"],
    )
] + [
    (cmd, "--county")
    for cmd in (["table1"], ["figure7"], ["figure8"], ["figure9"], ["report"])
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

    def test_bench_serve_needs_a_server_to_connect_to(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bench-serve"])
        assert exit_.value.code == 2
        assert "--connect" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gone",
        ["--county", "--scale", "--structure", "--snapshot", "--cache-size",
         "--trace", "--slow-ms", "--sanitize", "--async", "--wal"],
    )
    def test_bench_serve_starts_no_server(self, gone):
        """The options that built, opened or served an index in-process
        went with the in-process mode (``--queries``: see above)."""
        with pytest.raises(SystemExit) as exit_:
            main(["bench-serve", "--connect", "127.0.0.1:1", gone])
        assert exit_.value.code == 2


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

    @pytest.mark.parametrize(
        "flag", ["--max-inflight", "--max-inflight-conn", "--executor-workers"]
    )
    def test_an_asyncio_sizing_without_async_is_a_usage_error(self, capsys, flag):
        """The threaded server used to start and read none of these."""
        with pytest.raises(SystemExit) as exit_:
            main(["serve", flag, "3"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "--async" in err

    def test_an_asyncio_sizing_reaches_the_asyncio_front(self, monkeypatch):
        import repro.aio

        class Started(Exception):
            pass

        def front(engine, **kwargs):
            raise Started(kwargs)

        monkeypatch.setattr(repro.aio, "AsyncMapServer", front)
        with pytest.raises(Started) as started:
            main(["serve", "--async", "--county", "cecil", *SCALE,
                  "--max-inflight", "5", "--max-inflight-conn", "3",
                  "--executor-workers", "2"])
        kwargs = started.value.args[0]
        assert kwargs["max_inflight_total"] == 5
        assert kwargs["max_inflight_per_conn"] == 3
        assert kwargs["executor_workers"] == 2

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
            "profile": ["profile", f"127.0.0.1:{port}", "--seconds", "0.1"],
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
