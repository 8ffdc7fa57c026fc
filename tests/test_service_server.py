"""The JSON-over-TCP map server and the bench-serve load generator."""

import asyncio
import contextlib
import json
import socket
import threading
import time

import pytest

from repro.service import MapServer, QueryEngine, bench_serve, send_request
from repro.service.loadgen import percentile

from tests.conftest import TEST_WORLD, build_index, lattice_map


@pytest.fixture()
def server():
    engine = QueryEngine(build_index("R*", lattice_map(n=8)))
    srv = MapServer(engine)  # port 0: ephemeral
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


class TestProtocol:
    def test_ping(self, server):
        assert send_request(server.address, {"op": "ping"}) == {
            "ok": True,
            "result": "pong",
        }

    def test_point_and_window(self, server):
        r = send_request(server.address, {"op": "point", "x": 100, "y": 100})
        assert r["ok"] and isinstance(r["result"], list)
        r = send_request(
            server.address,
            {"op": "window", "x1": 0, "y1": 0, "x2": 400, "y2": 400},
        )
        assert r["ok"] and len(r["result"]) > 0

    def test_nearest(self, server):
        r = send_request(server.address, {"op": "nearest", "x": 300, "y": 300, "k": 2})
        assert r["ok"]
        assert len(r["result"]) == 2
        assert r["result"][0][1] <= r["result"][1][1]

    def test_batch(self, server):
        r = send_request(
            server.address,
            {
                "op": "batch",
                "order": "morton",
                "requests": [
                    {"op": "point", "x": 100, "y": 100},
                    {"op": "window", "x1": 0, "y1": 0, "x2": 200, "y2": 200},
                ],
            },
        )
        assert r["ok"]
        assert len(r["result"]["results"]) == 2
        assert r["result"]["order"] == "morton"

    def test_insert_then_query_sees_it(self, server):
        r = send_request(
            server.address,
            {"op": "insert", "x1": 5, "y1": 5, "x2": 30, "y2": 35},
        )
        assert r["ok"]
        seg_id = r["result"]
        r = send_request(server.address, {"op": "point", "x": 5, "y": 5})
        assert seg_id in r["result"]
        r = send_request(server.address, {"op": "delete", "seg_id": seg_id})
        assert r["ok"]
        r = send_request(server.address, {"op": "point", "x": 5, "y": 5})
        assert seg_id not in r["result"]

    def test_stats(self, server):
        send_request(server.address, {"op": "point", "x": 100, "y": 100})
        r = send_request(server.address, {"op": "stats"})
        assert r["ok"]
        stats = r["result"]
        assert stats["counters_consistent"] is True
        assert stats["index"]["kind"] == "R*"
        assert any(s["name"].startswith("conn-") for s in stats["sessions"])

    def test_unknown_op_is_error_not_disconnect(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "bogus"}\n')
                fh.flush()
                assert json.loads(fh.readline())["ok"] is False
                fh.write(b'{"op": "ping"}\n')  # connection survived
                fh.flush()
                assert json.loads(fh.readline())["result"] == "pong"

    def test_malformed_json_is_error(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b"this is not json\n")
                fh.flush()
                response = json.loads(fh.readline())
        assert response["ok"] is False
        assert "error" in response

    def test_unknown_seg_id_delete_is_structured_error(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "delete", "seg_id": 999999}\n')
                fh.flush()
                response = json.loads(fh.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "unknown_seg"
                assert "unknown segment id 999999" in response["error"]["message"]
                fh.write(b'{"op": "ping"}\n')  # connection survived
                fh.flush()
                assert json.loads(fh.readline())["result"] == "pong"

    def test_malformed_mutation_args_are_structured_errors(self, server):
        cases = [
            ({"op": "insert", "x1": 0, "y1": 0, "x2": 10}, "y2"),
            ({"op": "insert", "x1": "abc", "y1": 0, "x2": 1, "y2": 1}, "x1"),
            ({"op": "delete"}, "seg_id"),
            ({"op": "delete", "seg_id": "seven"}, "seg_id"),
            ({"op": "delete", "seg_id": True}, "seg_id"),
        ]
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                for request, field in cases:
                    fh.write(json.dumps(request).encode("utf-8") + b"\n")
                    fh.flush()
                    response = json.loads(fh.readline())
                    assert response["ok"] is False, request
                    assert response["error"]["code"] == "bad_args", request
                    assert field in response["error"]["message"], request
                # One connection survived every bad mutation in sequence.
                fh.write(b'{"op": "ping"}\n')
                fh.flush()
                assert json.loads(fh.readline())["result"] == "pong"

    def test_checkpoint_on_non_durable_server_is_error(self, server):
        response = send_request(server.address, {"op": "checkpoint"})
        assert response["ok"] is False
        assert response["error"]["code"] == "not_durable"
        assert "durable" in response["error"]["message"]

    def test_one_session_per_connection(self, server):
        """...while it is open: an ended connection's session is folded
        into the one ``closed`` row (TestSessionRetirement)."""
        with contextlib.ExitStack() as held:
            for _ in range(2):
                sock = held.enter_context(
                    socket.create_connection(server.address, timeout=10)
                )
                fh = held.enter_context(sock.makefile("rwb"))
                fh.write(b'{"op": "point", "x": 60, "y": 60}\n')
                fh.flush()
                assert json.loads(fh.readline())["ok"]
            stats = send_request(server.address, {"op": "stats"})["result"]
        conn_sessions = [
            s for s in stats["sessions"] if s["name"].startswith("conn-")
        ]
        assert len(conn_sessions) >= 3  # two open connections + this stats call

    def test_a_burst_of_connects_drops_no_syn(self, server):
        """32 connections opened at once (the load generator opens all of
        its at once) are all answered well inside the 1 s a dropped SYN
        takes to be retransmitted."""

        async def ping():
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b'{"op": "ping"}\n')
            line = await reader.readline()
            writer.close()
            return json.loads(line)["result"]

        async def burst():
            return await asyncio.gather(*(ping() for _ in range(32)))

        start = time.monotonic()
        assert asyncio.run(burst()) == ["pong"] * 32
        assert time.monotonic() - start < 0.9


class TestDurableServer:
    @pytest.fixture()
    def durable_server(self, tmp_path):
        from repro.wal import DurableStore

        index = build_index("R*", lattice_map(n=6))
        store = DurableStore.create(tmp_path / "store", index)
        engine = QueryEngine(index, store=store)
        srv = MapServer(engine)
        srv.start_background()
        yield srv
        srv.shutdown()
        srv.server_close()
        store.close()

    def test_checkpoint_op(self, durable_server):
        addr = durable_server.address
        r = send_request(addr, {"op": "insert", "x1": 5, "y1": 5, "x2": 9, "y2": 9})
        assert r["ok"]
        r = send_request(addr, {"op": "checkpoint"})
        assert r["ok"]
        assert r["result"]["checkpoint_lsn"] == 1
        assert r["result"]["folded_records"] == 1
        stats = send_request(addr, {"op": "stats"})["result"]
        assert stats["durable"] is True
        assert stats["last_lsn"] == 1
        assert stats["wal"]["checkpoints"] == 1
        assert stats["counters_consistent"] is True


class TestBenchServe:
    """``bench_serve`` is a client: every test starts its own server and
    passes the address; the lattices they serve lie inside the test world."""

    WORLD = float(TEST_WORLD)

    def test_four_thread_run(self, server):
        report = bench_serve(
            [server.address], threads=4, requests=60, seed=1, world_size=self.WORLD
        )
        assert report.errors == 0
        assert report.requests == 60
        assert report.counters_consistent is True
        assert report.throughput_qps > 0
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]
        # The engine-side figures are the target's own stats, moved by
        # exactly this load: one cache lookup a read, and a read-only run
        # logs nothing.
        assert (report.structure, report.segments) == ("R*", 112)
        assert report.cache["hits"] + report.cache["misses"] == 60
        assert report.latch["acquisitions"] > 0
        assert report.totals["disk_accesses"] + report.totals["buffer_hits"] > 0
        assert report.wal == {"log_appends": 0, "fsyncs": 0}

    @pytest.mark.parametrize("use_async", [False, True])
    def test_one_loadgen_drives_either_server(self, use_async):
        """Threaded and async: the same driver works the wire out from
        what the server answers."""
        from repro.aio import AsyncMapServer
        from repro.obs.metrics import MetricsRegistry

        engine = QueryEngine(
            build_index("R*", lattice_map(n=8)), registry=MetricsRegistry()
        )
        server = (AsyncMapServer if use_async else MapServer)(engine)
        server.start_background()
        try:
            remote = bench_serve(
                threads=3, requests=45, pipeline=4, connect=[server.address],
                world_size=self.WORLD,
            )
            # The target's own accounting saw exactly this load, on the
            # wire it speaks: v2 frames if it took the upgrade, v1 lines
            # (one hello refusal per connection) if it did not.
            if use_async:
                assert engine.registry.counter(
                    "repro_server_requests_total", proto="v2"
                ).value == 45
            assert engine.counters_consistent()
        finally:
            server.stop()
        assert (remote.errors, remote.overloaded, remote.requests) == (0, 0, 45)
        assert remote.counters_consistent is True
        assert remote.structure == "R*" and remote.source.startswith("connect:")

    def test_mutating_load_reports_group_commit(self, tmp_path):
        """``mutate_frac`` acts on a running target (it was dropped on the
        floor in connect mode): the inserts reach the target's log, and
        the report's group-commit line is the movement of its ``stats``."""
        from repro.aio import AsyncMapServer
        from repro.service import format_bench_report
        from repro.wal import DurableStore

        for use_async in (False, True):
            index = build_index("R*", lattice_map(n=6))
            store = DurableStore.create(tmp_path / f"wal-{use_async}", index)
            engine = QueryEngine(index, store=store)
            server = (AsyncMapServer if use_async else MapServer)(engine)
            server.start_background()
            try:
                before = send_request(server.address, {"op": "stats"})["result"]
                report = bench_serve(
                    connect=[server.address], threads=6, requests=60, pipeline=4,
                    mutate_frac=0.5, world_size=self.WORLD,
                )
                after = send_request(server.address, {"op": "stats"})["result"]
            finally:
                server.stop()
                store.close()
            assert report.errors == 0 and report.counters_consistent
            logged = after["wal"]["log_appends"] - before["wal"]["log_appends"]
            assert logged > 0
            assert after["index"]["segments"] - before["index"]["segments"] == logged
            assert report.wal["log_appends"] == logged
            # Inline commits (threaded) and the group committer (async)
            # alike: every ack waits for an fsync covering its record,
            # and commits that arrive during one share the next.
            assert 0 < report.wal["fsyncs"] <= logged
            assert f"{logged} mutations -> {report.wal['fsyncs']} fsyncs" in (
                format_bench_report(report)
            )

    @pytest.mark.parametrize("stats_reply", ["error_envelope", "closes_socket"])
    def test_unreadable_remote_stats_is_an_error(self, stats_reply, capsys):
        """``--connect`` against a target that serves the load but not
        ``stats``: nothing was checked, so the run must not pass."""
        import socketserver

        from repro.__main__ import main

        class Stub(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    if json.loads(line)["op"] != "stats":
                        reply = {"ok": True, "result": []}
                    elif stats_reply == "closes_socket":
                        return
                    else:
                        reply = {
                            "ok": False,
                            "error": {"code": "internal", "message": "boom"},
                        }
                    self.wfile.write(json.dumps(reply).encode() + b"\n")

        with socketserver.ThreadingTCPServer(("127.0.0.1", 0), Stub) as stub:
            stub.daemon_threads = True
            thread = threading.Thread(target=stub.serve_forever, daemon=True)
            thread.start()
            try:
                report = bench_serve(
                    threads=2, requests=10, connect=[stub.server_address]
                )
                code = main([
                    "bench-serve", "--threads", "2", "--requests", "10",
                    "--connect", "%s:%d" % stub.server_address,
                ])
            finally:
                stub.shutdown()
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert (report.requests, report.errors) == (10, 1)
        assert report.counters_consistent is False
        assert code == 1
        assert "(1 errors" in capsys.readouterr().out

    def test_report_formats(self, server):
        from repro.service import format_bench_report

        report = bench_serve([server.address], threads=2, requests=20)
        text = format_bench_report(report)
        assert "throughput" not in text  # human units, not field names
        assert "q/s" in text and "p99" in text and "disk accesses" in text
        assert "group commit" not in text  # nothing was logged


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 0.01) == 1.0
