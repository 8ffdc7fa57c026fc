"""The asyncio map server: negotiation, pipelining, admission, guards.

Wire-level behaviour is exercised over real loopback sockets against a
background server -- blocking sockets for v1 (any v1 client must work
unchanged), :class:`AsyncMapClient` for v2. Completion-order tests use a
gate target whose routing blocks on a :class:`threading.Event`, so the
tests *control* which request finishes first instead of racing timers.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.aio import (
    AsyncMapClient,
    AsyncMapServer,
    HEADER_BYTES,
    decode_header,
    decode_payload,
    encode_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.service import MapServer, QueryEngine, send_request

from tests.conftest import build_index, lattice_map


def _recv_frame(sock_file):
    header = sock_file.read(HEADER_BYTES)
    assert len(header) == HEADER_BYTES
    flags, length, request_id = decode_header(header)
    body = sock_file.read(length)
    assert len(body) == length
    return flags, request_id, decode_payload(body)


class GateBackend:
    """A router-shaped protocol target whose routing blocks on a per-op
    event: tests pick the completion order."""

    def __init__(self, gated=()):
        self.registry = MetricsRegistry()
        self.gates = {op: threading.Event() for op in gated}

    def route(self, raw):
        gate = self.gates.get(raw.get("op"))
        if gate is not None:
            assert gate.wait(10.0), "test forgot to open a gate"
        return raw.get("op")

    def count_request(self, op, ok):
        pass


@pytest.fixture()
def server():
    engine = QueryEngine(build_index("R*", lattice_map(n=8)))
    srv = AsyncMapServer(engine, executor_workers=2)
    srv.start_background()
    yield srv
    srv.stop()


@pytest.fixture()
def gated():
    backend = GateBackend(gated=("slow",))
    srv = AsyncMapServer(backend, executor_workers=2)
    srv.start_background()
    yield srv, backend.gates["slow"]
    backend.gates["slow"].set()  # never leave an executor thread parked
    srv.stop()


class TestV1Compat:
    """A v1 client cannot tell the async server from the threaded one."""

    def test_ping(self, server):
        assert send_request(server.address, {"op": "ping"}) == {
            "ok": True,
            "result": "pong",
        }

    def test_point_window_nearest(self, server):
        r = send_request(server.address, {"op": "point", "x": 100, "y": 100})
        assert r["ok"] and isinstance(r["result"], list)
        r = send_request(
            server.address, {"op": "window", "x1": 0, "y1": 0, "x2": 400, "y2": 400}
        )
        assert r["ok"] and len(r["result"]) > 0
        r = send_request(
            server.address, {"op": "nearest", "x": 300, "y": 300, "k": 2}
        )
        assert r["ok"] and len(r["result"]) == 2

    def test_insert_delete_cycle(self, server):
        r = send_request(
            server.address, {"op": "insert", "x1": 5, "y1": 5, "x2": 30, "y2": 35}
        )
        assert r["ok"]
        seg_id = r["result"]
        assert seg_id in send_request(
            server.address, {"op": "point", "x": 5, "y": 5}
        )["result"]
        assert send_request(server.address, {"op": "delete", "seg_id": seg_id})["ok"]

    def test_malformed_line_answers_and_survives(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b"this is not json\n")
                fh.flush()
                assert json.loads(fh.readline())["ok"] is False
                fh.write(b'{"op": "ping"}\n')
                fh.flush()
                assert json.loads(fh.readline())["result"] == "pong"

    def test_v1_pin_is_echoed(self, server):
        r = send_request(server.address, {"op": "ping", "v": 1})
        assert r == {"ok": True, "result": "pong", "v": 1}

    def test_unsupported_version_is_bad_args(self, server):
        for bad in (3, 0, True, "2"):
            r = send_request(server.address, {"op": "ping", "v": bad})
            assert r["ok"] is False, bad
            assert r["error"]["code"] == "bad_args", bad
            assert "v2" in r["error"]["message"]

    def test_sessions_attributed_per_connection(self, server):
        send_request(server.address, {"op": "point", "x": 60, "y": 60})
        stats = send_request(server.address, {"op": "stats"})["result"]
        assert any(s["name"].startswith("aconn-") for s in stats["sessions"])

    def test_v1_pipelining_two_lines_one_write(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "ping"}\n{"op": "point", "x": 1, "y": 1}\n')
                fh.flush()
                assert json.loads(fh.readline())["result"] == "pong"
                assert json.loads(fh.readline())["ok"] is True

    def test_v1_responses_keep_arrival_order(self, gated):
        """v1 has no ids, so a slow first request must hold the fast one."""
        srv, gate = gated
        with socket.create_connection(srv.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "slow"}\n{"op": "fast"}\n')
                fh.flush()
                # "fast" finishes first on the executor; the ordered
                # writer may not release it until "slow" answers.
                threading.Timer(0.3, gate.set).start()
                assert json.loads(fh.readline())["result"] == "slow"
                assert json.loads(fh.readline())["result"] == "fast"


class TestNegotiation:
    def test_upgrade_ack_then_frames(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "ping", "v": 2}\n')
                fh.flush()
                ack = json.loads(fh.readline())
                # The ack also advertises capabilities (trace-context
                # trailer support) for clients that care.
                assert ack == {
                    "ok": True,
                    "result": "pong",
                    "v": 2,
                    "features": {"tc": True},
                }
                # Every byte after the ack is v2 frames, both directions.
                fh.write(encode_frame(7, {"op": "point", "x": 100, "y": 100}))
                fh.flush()
                flags, request_id, payload = _recv_frame(fh)
                assert flags & 0x01  # response bit
                assert request_id == 7
                assert payload["ok"] is True

    def test_threaded_server_refuses_the_pin(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = MapServer(engine)
        srv.start_background()
        try:
            r = send_request(srv.address, {"op": "ping", "v": 2})
            assert r["ok"] is False
            assert r["error"]["code"] == "bad_args"

            async def try_v2():
                with pytest.raises(ConnectionError):
                    await AsyncMapClient.connect(srv.address)

            asyncio.run(try_v2())
        finally:
            srv.shutdown()
            srv.server_close()

    def test_request_ids_echo_verbatim(self, server):
        async def main():
            client = await AsyncMapClient.connect(server.address)
            try:
                # Ids are correlated by the client; interleave odd ones.
                results = await asyncio.gather(
                    *[client.request({"op": "ping"}) for _ in range(5)]
                )
                assert all(r["result"] == "pong" for r in results)
            finally:
                await client.close()

        asyncio.run(main())

    def test_malformed_frame_payload_answers_by_id(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "ping", "v": 2}\n')
                fh.flush()
                json.loads(fh.readline())
                from repro.aio.frames import FRAME_HEADER

                body = b"[1, 2, 3]"
                fh.write(FRAME_HEADER.pack(0, len(body), 99) + body)
                fh.flush()
                _flags, request_id, payload = _recv_frame(fh)
                assert request_id == 99
                assert payload["ok"] is False
                assert payload["error"]["code"] == "bad_args"


class TestPipelining:
    def test_out_of_order_completion(self, gated):
        """v2 responses leave at completion: fast overtakes gated slow."""
        srv, gate = gated

        async def main():
            client = await AsyncMapClient.connect(srv.address)
            try:
                slow = asyncio.ensure_future(client.request({"op": "slow"}))
                fast = await client.request({"op": "fast"})
                assert fast["result"] == "fast"
                assert not slow.done()  # still parked on the gate
                gate.set()
                assert (await slow)["result"] == "slow"
            finally:
                await client.close()

        asyncio.run(main())

    def test_many_in_flight_on_one_connection(self, server):
        async def main():
            client = await AsyncMapClient.connect(server.address)
            try:
                results = await asyncio.gather(
                    *[
                        client.request({"op": "point", "x": 50 * i, "y": 50 * i})
                        for i in range(32)
                    ]
                )
                assert all(r["ok"] for r in results)
            finally:
                await client.close()

        asyncio.run(main())


class TestAdmissionControl:
    def test_per_connection_cap(self):
        backend = GateBackend(gated=("slow",))
        srv = AsyncMapServer(
            backend, executor_workers=2, max_inflight_per_conn=2
        )
        srv.start_background()
        gate = backend.gates["slow"]
        try:

            async def main():
                client = await AsyncMapClient.connect(srv.address)
                try:
                    first = asyncio.ensure_future(client.request({"op": "slow"}))
                    second = asyncio.ensure_future(client.request({"op": "slow"}))
                    await asyncio.sleep(0.2)  # both admitted, both parked
                    third = await client.request({"op": "fast"})
                    assert third["ok"] is False
                    assert third["error"]["code"] == "server_overloaded"
                    gate.set()
                    done = await asyncio.gather(first, second)
                    assert all(r["ok"] for r in done)
                finally:
                    await client.close()

            asyncio.run(main())
            overloaded = backend.registry.counter(
                "repro_server_overloaded_total"
            ).value
            assert overloaded >= 1
        finally:
            gate.set()
            srv.stop()

    def test_global_cap_spans_connections(self):
        backend = GateBackend(gated=("slow",))
        srv = AsyncMapServer(
            backend, executor_workers=2, max_inflight_total=1
        )
        srv.start_background()
        gate = backend.gates["slow"]
        try:

            async def main():
                c1 = await AsyncMapClient.connect(srv.address)
                c2 = await AsyncMapClient.connect(srv.address)
                try:
                    held = asyncio.ensure_future(c1.request({"op": "slow"}))
                    await asyncio.sleep(0.2)
                    rejected = await c2.request({"op": "fast"})
                    assert rejected["error"]["code"] == "server_overloaded"
                    gate.set()
                    assert (await held)["ok"]
                    # Capacity freed: the same connection is served now.
                    assert (await c2.request({"op": "fast"}))["ok"]
                finally:
                    await c1.close()
                    await c2.close()

            asyncio.run(main())
        finally:
            gate.set()
            srv.stop()


class TestWireGuards:
    """Satellites: idle timeout and size caps, both servers, both framings."""

    def test_async_idle_timeout_closes_connection(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = AsyncMapServer(engine, idle_timeout=0.3)
        srv.start_background()
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                with sock.makefile("rwb") as fh:
                    fh.write(b'{"op": "ping"}\n')
                    fh.flush()
                    assert json.loads(fh.readline())["result"] == "pong"
                    start = time.monotonic()
                    assert fh.readline() == b""  # server closed on us
                    assert time.monotonic() - start < 5.0
            assert (
                engine.registry.counter("repro_server_idle_timeouts_total").value
                >= 1
            )
        finally:
            srv.stop()

    def test_threaded_idle_timeout_closes_connection(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = MapServer(engine, idle_timeout=0.3)
        srv.start_background()
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                with sock.makefile("rwb") as fh:
                    fh.write(b'{"op": "ping"}\n')
                    fh.flush()
                    assert json.loads(fh.readline())["result"] == "pong"
                    start = time.monotonic()
                    assert fh.readline() == b""
                    assert time.monotonic() - start < 5.0
        finally:
            srv.shutdown()
            srv.server_close()

    def test_async_oversized_v1_line(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = AsyncMapServer(engine, max_line_bytes=512)
        srv.start_background()
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                with sock.makefile("rwb") as fh:
                    fh.write(b'{"op": "ping", "junk": "' + b"x" * 2048 + b'"}\n')
                    fh.flush()
                    r = json.loads(fh.readline())
                    assert r["ok"] is False
                    assert r["error"]["code"] == "frame_too_large"
                    fh.write(b'{"op": "ping"}\n')  # stream survived the drain
                    fh.flush()
                    assert json.loads(fh.readline())["result"] == "pong"
        finally:
            srv.stop()

    def test_threaded_oversized_v1_line(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = MapServer(engine, max_line_bytes=512)
        srv.start_background()
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                with sock.makefile("rwb") as fh:
                    fh.write(b'{"op": "ping", "junk": "' + b"x" * 2048 + b'"}\n')
                    fh.flush()
                    r = json.loads(fh.readline())
                    assert r["ok"] is False
                    assert r["error"]["code"] == "frame_too_large"
                    fh.write(b'{"op": "ping"}\n')
                    fh.flush()
                    assert json.loads(fh.readline())["result"] == "pong"
        finally:
            srv.shutdown()
            srv.server_close()

    def test_oversized_v2_frame_answers_its_id(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = AsyncMapServer(engine, max_frame_bytes=512)
        srv.start_background()
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                with sock.makefile("rwb") as fh:
                    fh.write(b'{"op": "ping", "v": 2}\n')
                    fh.flush()
                    json.loads(fh.readline())
                    big = {"op": "ping", "junk": "x" * 2048}
                    fh.write(encode_frame(42, big))
                    fh.write(encode_frame(43, {"op": "ping"}))
                    fh.flush()
                    _f, request_id, payload = _recv_frame(fh)
                    assert request_id == 42
                    assert payload["error"]["code"] == "frame_too_large"
                    _f, request_id, payload = _recv_frame(fh)
                    assert request_id == 43  # pipelined frame behind survived
                    assert payload["result"] == "pong"
        finally:
            srv.stop()

    def test_torn_frames_close_without_killing_the_server(self, server):
        # EOF mid-header.
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b'{"op": "ping", "v": 2}\n')
            sock.recv(4096)
            sock.sendall(b"\x00\x05\x00")  # 3 of 13 header bytes
        # EOF mid-payload: header promises 100 bytes, sends 10.
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b'{"op": "ping", "v": 2}\n')
            sock.recv(4096)
            from repro.aio.frames import FRAME_HEADER

            sock.sendall(FRAME_HEADER.pack(0, 100, 5) + b"0123456789")
        # The server itself is fine: a fresh connection still answers.
        assert send_request(server.address, {"op": "ping"})["result"] == "pong"


class TestGroupCommit:
    def test_concurrent_mutations_share_fsyncs(self, tmp_path):
        from repro.wal import DurableStore

        index = build_index("R*", lattice_map(n=6))
        store = DurableStore.create(tmp_path / "store", index, group_commit=1)
        engine = QueryEngine(index, store=store)
        srv = AsyncMapServer(engine, executor_workers=4)
        srv.start_background()
        try:
            fsyncs_before = store.wal.stats()["fsyncs"]

            async def main():
                clients = [
                    await AsyncMapClient.connect(srv.address) for _ in range(4)
                ]
                try:
                    results = await asyncio.gather(
                        *[
                            c.request(
                                {
                                    "op": "insert",
                                    "x1": i,
                                    "y1": i,
                                    "x2": i + 2,
                                    "y2": i + 2,
                                }
                            )
                            for c in clients
                            for i in range(1, 6)
                        ]
                    )
                    assert all(r["ok"] for r in results)
                finally:
                    for c in clients:
                        await c.close()

            asyncio.run(main())
            mutations = 20
            fsyncs = store.wal.stats()["fsyncs"] - fsyncs_before
            # Group commit's whole point: strictly fewer fsyncs than acks.
            assert fsyncs < mutations
            gc = srv.stats()["group_commit"]
            assert gc["committed"] == mutations
            assert gc["max_batch"] >= 2
            assert gc["synced_lsn"] >= mutations
        finally:
            srv.stop()
            store.close()

    def test_commit_before_ack_survives_reopen(self, tmp_path):
        """Every acked mutation must be durable: reopen and re-query."""
        from repro.wal import DurableStore

        index = build_index("R*", lattice_map(n=4))
        store = DurableStore.create(tmp_path / "store", index, group_commit=1)
        engine = QueryEngine(index, store=store)
        srv = AsyncMapServer(engine)
        srv.start_background()
        try:

            async def main():
                client = await AsyncMapClient.connect(srv.address)
                try:
                    r = await client.request(
                        {"op": "insert", "x1": 3, "y1": 3, "x2": 9, "y2": 9}
                    )
                    assert r["ok"]
                    return r["result"]
                finally:
                    await client.close()

            seg_id = asyncio.run(main())
        finally:
            srv.stop()
            store.close()

        from repro.service.api import PointQuery

        store2 = DurableStore.open(tmp_path / "store")
        try:
            assert store2.last_lsn >= 1
            hits = QueryEngine(store2.index, store=store2).execute(
                PointQuery(3.0, 3.0)
            )
            assert seg_id in hits
        finally:
            store2.close()


class TestLifecycle:
    def test_stats_shape(self, server):
        stats = server.stats()
        assert stats["connections"] == 0
        assert stats["inflight"] == 0
        assert stats["queued"] == 0

    def test_stop_is_idempotent(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = AsyncMapServer(engine)
        srv.start_background()
        srv.stop()
        srv.stop()  # second stop is a no-op, not an error
