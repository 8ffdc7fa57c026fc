"""The JSON-over-TCP map server."""

import asyncio
import contextlib
import json
import socket
import time

import pytest

from repro.service import MapServer, QueryEngine, send_request

from tests.conftest import build_index, lattice_map


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
