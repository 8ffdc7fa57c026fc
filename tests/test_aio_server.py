"""The asyncio map server: negotiation, pipelining, admission, guards.

Wire-level behaviour is exercised over real loopback sockets against a
background server -- blocking sockets for v1 (any v1 client must work
unchanged), :class:`AsyncMapClient` for v2. Completion-order tests use a
gate target whose routing blocks on a :class:`threading.Event`, so the
tests *control* which request finishes first instead of racing timers.
"""

import asyncio
import contextlib
import errno
import json
import socket
import threading
import time

import pytest

from repro.aio import (
    AsyncMapClient,
    AsyncMapServer,
    FRAME_HEADER,
    HEADER_BYTES,
    decode_header,
    decode_payload,
    encode_frame,
)
from repro.aio.server import MAX_INFLIGHT_PER_CONN
from repro.obs.metrics import MetricsRegistry
from repro.service import MapServer, QueryEngine, send_request

from tests.conftest import TEST_WORLD, build_index, lattice_map


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
def server(monkeypatch):
    monkeypatch.setattr("repro.aio.server.EXECUTOR_WORKERS", 2)
    engine = QueryEngine(build_index("R*", lattice_map(n=8)))
    srv = AsyncMapServer(engine)
    srv.start_background()
    yield srv
    srv.stop()


@pytest.fixture()
def gated(monkeypatch):
    monkeypatch.setattr("repro.aio.server.EXECUTOR_WORKERS", 2)
    backend = GateBackend(gated=("slow",))
    srv = AsyncMapServer(backend)
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
                # The echoed pin is the whole ack: v2 has no optional
                # capability left to advertise.
                assert ack == {"ok": True, "result": "pong", "v": 2}
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
                body = b"[1, 2, 3]"
                fh.write(FRAME_HEADER.pack(0, len(body), 99) + body)
                fh.flush()
                _flags, request_id, payload = _recv_frame(fh)
                assert request_id == 99
                assert payload["ok"] is False
                assert payload["error"]["code"] == "bad_args"

    @pytest.mark.parametrize("bit", [0, 1, 7])
    def test_a_request_frame_with_a_flag_bit_is_refused_by_id(self, server, bit):
        """Bit 0 marks responses, bit 1 marked the trace trailer a client
        may still append, bit 7 never meant anything: each is a
        ``bad_args`` on the frame's own id, its payload is not run, and
        the connection goes on serving."""
        insert = json.dumps(
            {"op": "insert", "x1": 1, "y1": 1, "x2": 2, "y2": 2}
        ).encode() + b"t" * 25
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "ping", "v": 2}\n')
                fh.flush()
                assert json.loads(fh.readline())["v"] == 2
                segments = len(server.protocol.target.ctx.segments)
                fh.write(FRAME_HEADER.pack(1 << bit, len(insert), 41) + insert)
                fh.write(encode_frame(42, {"op": "ping"}))
                fh.flush()
                _flags, request_id, refused = _recv_frame(fh)
                assert request_id == 41 and refused["ok"] is False
                assert refused["error"]["code"] == "bad_args"
                assert "flag" in refused["error"]["message"]
                assert _recv_frame(fh)[1:] == (42, {"ok": True, "result": "pong"})
                assert len(server.protocol.target.ctx.segments) == segments


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

    def test_a_pipelining_client_cannot_starve_its_neighbour(self, gated, monkeypatch):
        """Round-robin, not FIFO: a request of connection B admitted
        behind 30 of connection A's is answered before A's last. Both
        workers are parked on the gate while everything is admitted, and
        every wait is on an event, never on a sleep."""
        srv, gate = gated
        n = 30
        admitted = []
        all_of_a, b_too = threading.Event(), threading.Event()
        admit = srv._admit

        def admit_and_count(conn, req):
            admit(conn, req)
            admitted.append(conn.conn_id)
            if len(admitted) == n:
                all_of_a.set()
            elif len(admitted) > n:
                b_too.set()

        monkeypatch.setattr(srv, "_admit", admit_and_count)

        async def main():
            loop = asyncio.get_running_loop()
            a = await AsyncMapClient.connect(srv.address)
            b = await AsyncMapClient.connect(srv.address)
            answered = []

            def track(label, coro):
                future = asyncio.ensure_future(coro)
                future.add_done_callback(lambda _f: answered.append(label))
                return future

            try:
                ops = ["slow", "slow"] + ["fast"] * (n - 2)
                a_futures = [track(f"a{i}", a.request({"op": op})) for i, op in enumerate(ops)]
                assert await loop.run_in_executor(None, all_of_a.wait, 10.0)
                b_future = track("b", b.request({"op": "fast"}))
                assert await loop.run_in_executor(None, b_too.wait, 10.0)
                assert not any(f.done() for f in a_futures)  # A is parked
                gate.set()
                results = await asyncio.gather(*a_futures, b_future)
                assert all(r["ok"] for r in results)
            finally:
                await a.close()
                await b.close()
            return answered

        answered = asyncio.run(main())
        assert len(set(admitted)) == 2
        # Under a FIFO scheduler B would be answered last of all.
        assert answered.index("b") < answered.index(f"a{n - 1}")


def _settles(predicate, timeout=2.0):
    """The loop thread finishes a request just after writing its answer:
    give state read from the test thread a moment to catch up."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def _dispatched(srv):
    return dict(srv.stats()["dispatch"])


class TestDispatch:
    """Short reads run on the loop thread -- while no worker is busy."""

    def test_short_reads_never_start_a_worker_thread(self):
        def workers():
            return {t for t in threading.enumerate() if t.name.startswith("aio-engine")}

        before = workers()
        engine = QueryEngine(
            build_index("R*", lattice_map(n=8)), registry=MetricsRegistry()
        )
        srv = AsyncMapServer(engine)
        srv.start_background()
        try:

            async def main():
                client = await AsyncMapClient.connect(srv.address)
                try:
                    for i in range(100):
                        at = 50.0 * (i % 16)
                        r = await client.request({"op": "point", "x": at, "y": at})
                        assert r["ok"]
                        r = await client.request(
                            {"op": "window", "x1": at, "y1": at,
                             "x2": at + 150, "y2": at + 150}
                        )
                        assert r["ok"]
                finally:
                    await client.close()

            asyncio.run(main())
            assert workers() == before  # the pool spawns lazily: never used
            # 200 reads and the upgrade ping.
            assert _settles(
                lambda: _dispatched(srv) == {"loop": 201, "executor": 0}
            ), _dispatched(srv)
            hold = srv.stats()["loop_hold"]
            assert hold["count"] == 201
            assert 0 < hold["p99_seconds"] and 0 < hold["max_seconds"] < 0.25
            # Both families are in the registry `metrics` exports.
            reg = engine.registry
            assert reg.counter("repro_server_dispatch_total", path="loop").value == 201
            assert reg.histogram("repro_server_loop_hold_seconds").total == 201
        finally:
            srv.stop()

    def test_loop_runs_nothing_while_a_worker_is_busy(self, server):
        """A read arriving while ``profile`` sits in the executor goes to
        the executor too (a worker could hold the latch), is answered
        before it, and the loop stays responsive throughout."""

        idle = _dispatched(server)

        async def main():
            slow_conn = await AsyncMapClient.connect(server.address)
            fast_conn = await AsyncMapClient.connect(server.address)
            try:
                # The two upgrade pings are answered, maybe not yet counted.
                assert _settles(
                    lambda: _dispatched(server)["loop"] == idle["loop"] + 2
                )
                before = _dispatched(server)
                slow = asyncio.ensure_future(
                    slow_conn.request({"op": "profile", "seconds": 0.5})
                )
                await asyncio.sleep(0.1)  # profile is parked in a worker
                r = await fast_conn.request({"op": "point", "x": 100, "y": 100})
                assert r["ok"] and not slow.done()
                start = time.monotonic()
                assert (await fast_conn.request({"op": "ping"}))["result"] == "pong"
                assert time.monotonic() - start < 0.05
                assert not slow.done()
                after = _dispatched(server)
                assert after["executor"] - before["executor"] == 3
                assert after["loop"] == before["loop"]
                assert (await slow)["ok"]
                # The worker is back: the next read runs on the loop again.
                assert (await fast_conn.request({"op": "ping"}))["ok"]
                assert _settles(
                    lambda: _dispatched(server)["loop"] == before["loop"] + 1
                )
            finally:
                await slow_conn.close()
                await fast_conn.close()

        asyncio.run(main())

    def test_a_window_is_sized_against_the_served_index_s_own_world(self):
        """An R+-tree keeps its world as a rectangle: all of a 1 024
        world is every segment, not the 1/256 of them a 16 384 world
        would make it, so that window must not run on the loop."""
        engine = QueryEngine(
            build_index("R+", lattice_map(n=16, pitch=60)), registry=MetricsRegistry()
        )
        assert len(engine.ctx.segments) > 256
        srv = AsyncMapServer(engine)
        srv.start_background()
        try:
            for side, path in ((TEST_WORLD, "executor"), (TEST_WORLD / 100, "loop")):
                before = _dispatched(srv)
                r = send_request(
                    srv.address, {"op": "window", "x1": 0, "y1": 0, "x2": side, "y2": side}
                )
                assert r["ok"]
                assert _settles(lambda: _dispatched(srv)[path] == before[path] + 1), (
                    side,
                    _dispatched(srv),
                )
            reg = engine.registry
            assert reg.counter("repro_server_dispatch_total", path="executor").value == 1
        finally:
            srv.stop()

    def test_a_router_target_never_runs_on_the_loop(self, gated):
        srv, _gate = gated
        for op in ("ping", "point", "fast"):
            assert send_request(srv.address, {"op": op, "x": 1, "y": 1})["ok"]
        assert _dispatched(srv) == {"loop": 0, "executor": 3}

    def test_arguments_no_float_holds_do_not_kill_the_scheduler(self, server):
        """Valid JSON whose integers overflow a float reaches the
        dispatch decision unvalidated; it must be answered (an error
        envelope for the windows, every segment for that ``k``), and
        the one scheduler task must outlive it."""
        huge = 10**400
        before = _dispatched(server)
        for raw in (
            {"op": "window", "x1": 0, "y1": 0, "x2": huge, "y2": 10},
            {"op": "window", "x1": -huge, "y1": -huge, "x2": huge, "y2": huge},
        ):
            r = send_request(server.address, raw)
            assert r["ok"] is False and "code" in r["error"], r
        assert send_request(
            server.address, {"op": "nearest", "x": 100, "y": 100, "k": huge}
        )["ok"]
        assert send_request(server.address, {"op": "ping"})["result"] == "pong"
        after = _dispatched(server)
        # Not short: their errors were built off the loop thread.
        assert after["executor"] - before["executor"] == 3
        assert _settles(lambda: server.stats()["inflight"] == 0)

    def test_v1_long_then_short_in_one_write_keep_arrival_order(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                fh.write(b'{"op": "profile", "seconds": 0.3}\n{"op": "ping"}\n')
                fh.flush()
                assert "samples" in json.loads(fh.readline())["result"]
                assert json.loads(fh.readline())["result"] == "pong"

    def test_upgrade_ack_precedes_frames_answered_in_the_same_turn(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as fh:
                # One write: by the time the scheduler runs, the upgrade
                # and all three frames are queued on the connection.
                fh.write(
                    b'{"op": "ping", "v": 2}\n'
                    + b"".join(encode_frame(i, {"op": "ping"}) for i in (1, 2, 3))
                )
                fh.flush()
                assert json.loads(fh.readline())["v"] == 2
                for i in (1, 2, 3):
                    _flags, request_id, payload = _recv_frame(fh)
                    assert request_id == i and payload["result"] == "pong"


def _count_loop_work(loop):
    """Count the tasks and futures ``loop`` creates from now on."""
    counts = {"tasks": 0, "futures": 0}
    create_future = loop.create_future

    def counted_future():
        counts["futures"] += 1
        return create_future()

    def counted_task(loop, coro, **kwargs):
        counts["tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.create_future = counted_future
    loop.set_task_factory(counted_task)
    return counts


class TestLoopWork:
    """What one request costs the event loops, beyond its callbacks."""

    def test_a_short_v2_read_creates_no_task_and_no_future(self, server):
        """On the server a short read is callbacks only; the client's
        ``request`` creates its one response future and nothing else."""
        reads = [
            {"op": "point", "x": 100, "y": 100},
            {"op": "window", "x1": 0, "y1": 0, "x2": 150, "y2": 150},
            {"op": "nearest", "x": 100, "y": 100, "k": 1},
        ]
        on_server = {}
        installed = threading.Event()

        def install():
            on_server.update(counts=_count_loop_work(server._loop))
            installed.set()

        async def main():
            client = await AsyncMapClient.connect(server.address)
            try:
                server._loop.call_soon_threadsafe(install)
                assert installed.wait(5.0)
                on_client = _count_loop_work(asyncio.get_running_loop())
                for raw in reads:
                    assert (await client.request(raw))["ok"]
                return dict(on_client)
            finally:
                await client.close()

        before = _dispatched(server)
        on_client = asyncio.run(main())
        assert on_client == {"tasks": 0, "futures": len(reads)}
        assert _settles(lambda: server.stats()["inflight"] == 0)
        assert _dispatched(server)["loop"] == before["loop"] + 1 + len(reads)
        assert on_server["counts"] == {"tasks": 0, "futures": 0}


@contextlib.contextmanager
def _v2_peer(handle):
    """A one-connection stand-in for a v2 server, on a thread: it acks
    the upgrade, then ``handle(sock, fh)`` has the connection. Its
    receive buffer is small, so what it does not read backs up."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        sock, _ = listener.accept()
        with sock, sock.makefile("rb") as fh:
            fh.readline()
            sock.sendall(b'{"ok":true,"result":"pong","v":2}\n')
            handle(sock, fh)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        thread.join(timeout=10.0)
        listener.close()


class TestClient:
    def test_a_malformed_response_frame_fails_the_connection_by_name(self):
        """A response frame that is not JSON leaves the stream untrusted:
        the pending request and every later one fail naming the bad
        frame, and the client closes its transport."""

        def answer_garbage(sock, fh):
            _flags, request_id, _payload = _recv_frame(fh)
            sock.sendall(FRAME_HEADER.pack(1, 8, request_id) + b"not json")
            fh.read()  # until the client hangs up

        with _v2_peer(answer_garbage) as address:

            async def main():
                client = await AsyncMapClient.connect(address)
                try:
                    with pytest.raises(ConnectionError, match="malformed response frame"):
                        await asyncio.wait_for(client.request({"op": "ping"}), 5.0)
                    assert client._transport.is_closing()
                    with pytest.raises(ConnectionError, match="malformed response frame"):
                        await client.request({"op": "ping"})
                finally:
                    await client.close()

            asyncio.run(main())

    def test_requests_wait_while_the_server_does_not_read(self):
        """Large frames pipelined at a peer that reads nothing: the
        requests past the transport's high-water mark wait unwritten,
        so the client holds at most the mark plus one frame. When the
        peer goes, the written and the waiting requests all fail."""
        release = threading.Event()
        n, junk = 40, "x" * 65536

        with _v2_peer(lambda _sock, _fh: release.wait(20.0)) as address:

            async def main():
                client = await AsyncMapClient.connect(address)
                transport = client._transport
                sock = transport.get_extra_info("socket")
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
                payload = {"op": "ping", "junk": junk}
                frame = len(encode_frame(n, payload))
                requests = [
                    asyncio.ensure_future(client.request(payload)) for _ in range(n)
                ]
                try:
                    for _ in range(20):  # everything that can be written is
                        await asyncio.sleep(0.01)
                    _low, high = transport.get_write_buffer_limits()
                    assert transport.get_write_buffer_size() <= high + frame
                    assert 0 < len(client._pending) < n  # the rest wait
                    assert not any(r.done() for r in requests)
                finally:
                    release.set()
                results = await asyncio.gather(*requests, return_exceptions=True)
                assert all(isinstance(r, ConnectionError) for r in results), results
                await client.close()

            asyncio.run(main())


class TestAdmissionControl:
    def test_per_connection_cap(self, monkeypatch):
        monkeypatch.setattr("repro.aio.server.EXECUTOR_WORKERS", 2)
        monkeypatch.setattr("repro.aio.server.MAX_INFLIGHT_PER_CONN", 2)
        backend = GateBackend(gated=("slow",))
        srv = AsyncMapServer(backend)
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

    def test_global_cap_spans_connections(self, monkeypatch):
        monkeypatch.setattr("repro.aio.server.EXECUTOR_WORKERS", 2)
        monkeypatch.setattr("repro.aio.server.MAX_INFLIGHT_TOTAL", 1)
        backend = GateBackend(gated=("slow",))
        srv = AsyncMapServer(backend)
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

    def test_a_trickled_frame_still_times_out(self):
        """Slow loris: bytes keep arriving, a complete request never does."""
        engine = QueryEngine(
            build_index("R*", lattice_map(n=4)), registry=MetricsRegistry()
        )
        srv = AsyncMapServer(engine, idle_timeout=0.3)
        srv.start_background()
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                sock.sendall(b'{"op": "ping", "v": 2}\n')
                assert json.loads(sock.recv(4096))["v"] == 2
                sock.settimeout(0.1)
                start = time.monotonic()
                closed = False
                for byte in encode_frame(1, {"op": "ping"})[:-1]:
                    try:
                        sock.sendall(bytes([byte]))
                        closed = sock.recv(1) == b""
                    except socket.timeout:
                        continue  # 0.1 s without an answer: next byte
                    except ConnectionError:
                        closed = True
                    if closed:
                        break
                assert closed and time.monotonic() - start < 2.0
            assert (
                engine.registry.counter("repro_server_idle_timeouts_total").value
                == 1
            )
        finally:
            srv.stop()

    def test_a_peer_that_never_reads_is_not_read_from(self):
        """10 000 pipelined requests, no response read: once the write
        buffer passes its high-water mark, ``pause_writing`` calls
        ``pause_reading()``, so what the server holds for the connection
        is bounded by the transport's high-water mark, not by the peer."""
        n = 10_000
        engine = QueryEngine(
            build_index("R*", lattice_map(n=8)), registry=MetricsRegistry()
        )
        srv = AsyncMapServer(engine)
        srv.start_background()
        # Accepted sockets inherit the listener's buffer size: keep the
        # kernel from swallowing megabytes of responses on its own.
        srv._server.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        seen = engine.registry.counter("repro_server_requests_total", proto="v2")
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            sock.connect(srv.address)
            sock.sendall(b'{"op": "ping", "v": 2}\n')
            fh = sock.makefile("rb")
            assert json.loads(fh.readline())["v"] == 2
            frames = b"".join(
                encode_frame(i, {"op": "window", "x1": 0, "y1": 0, "x2": 900, "y2": 900})
                for i in range(n)
            )
            sender = threading.Thread(target=sock.sendall, args=(frames,), daemon=True)
            sender.start()
            # The server stalls once nobody takes its responses.
            last, stable_since = -1, time.monotonic()
            deadline = stable_since + 20.0
            while time.monotonic() - stable_since < 0.5:
                assert time.monotonic() < deadline
                time.sleep(0.05)
                if seen.value != last:
                    last, stable_since = seen.value, time.monotonic()
            assert 0 < seen.value < n
            (conn,) = srv._conns
            transport = conn.transport
            _low, high = transport.get_write_buffer_limits()
            # Over the mark by at most the responses already in flight.
            response = 4096
            assert transport.get_write_buffer_size() <= (
                high + (MAX_INFLIGHT_PER_CONN + 1) * response
            )
            assert len(conn.pending) <= MAX_INFLIGHT_PER_CONN
            # The peer starts reading: everything is answered, by id.
            answered = set()
            while len(answered) < n:
                _flags, request_id, payload = _recv_frame(fh)
                assert payload["ok"] or payload["error"]["code"] == "server_overloaded"
                answered.add(request_id)
            assert answered == set(range(n))
            sender.join(timeout=10.0)
            assert not sender.is_alive()
        finally:
            sock.close()
            srv.stop()

    def test_async_oversized_v1_line(self, monkeypatch):
        monkeypatch.setattr("repro.aio.server.MAX_LINE_BYTES", 512)
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = AsyncMapServer(engine)
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

    def test_threaded_oversized_v1_line(self, monkeypatch):
        monkeypatch.setattr("repro.service.server.MAX_LINE_BYTES", 512)
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = MapServer(engine)
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

    def test_oversized_v2_frame_answers_its_id(self, monkeypatch):
        monkeypatch.setattr("repro.aio.server.MAX_FRAME_BYTES", 512)
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = AsyncMapServer(engine)
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
        store = DurableStore.create(tmp_path / "store", index)
        engine = QueryEngine(index, store=store)
        srv = AsyncMapServer(engine)
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

    def test_every_front_fsyncs_before_each_ack(self, tmp_path):
        """One commit rule: five sequential acked inserts cost five
        fsyncs on the threaded server, on the asyncio server and on a
        shard worker -- no front acks a mutation before an fsync covers
        it."""
        from repro.data import generate_county
        from repro.shard import LocalShardSet, init_shard_set
        from repro.wal import DurableStore

        def five_inserts(address, store) -> int:
            before = store.wal.stats()["fsyncs"]
            for i in range(1, 6):
                insert = {"op": "insert", "x1": i, "y1": i, "x2": i + 2, "y2": i + 2}
                assert send_request(address, insert)["ok"]
            return store.wal.stats()["fsyncs"] - before

        fsyncs = {}
        for front in (MapServer, AsyncMapServer):
            index = build_index("R*", lattice_map(n=4))
            store = DurableStore.create(tmp_path / front.__name__, index)
            server = front(QueryEngine(index, store=store))
            server.start_background()
            try:
                fsyncs[front.__name__] = five_inserts(server.address, store)
            finally:
                server.stop()
                store.close()
        root = str(tmp_path / "shards")
        init_shard_set(
            root, "R*", map_data=generate_county("cecil", scale=0.01), n_shards=2
        )
        with LocalShardSet(root) as shards:
            worker = shards.servers["s0"]
            fsyncs["worker"] = five_inserts(worker.address, worker.engine.store)
        assert fsyncs == {"MapServer": 5, "AsyncMapServer": 5, "worker": 5}

    def test_a_failed_fsync_fails_the_ack_and_frees_the_slot(self, tmp_path):
        """``wal.sync`` raising must not strand its waiters: the mutation
        is answered ``ok: false`` (no fsync, no ack), its in-flight slot
        is returned, and the next batch commits normally."""
        from repro.wal import DurableStore

        index = build_index("R*", lattice_map(n=4))
        store = DurableStore.create(tmp_path / "store", index)
        engine = QueryEngine(index, store=store)
        srv = AsyncMapServer(engine)
        srv.start_background()
        real_sync = store.wal.sync
        failures = []

        def sync_fails_once():
            if not failures:
                failures.append(1)
                raise OSError(errno.EIO, "Input/output error")
            return real_sync()

        store.wal.sync = sync_fails_once
        insert = {"op": "insert", "x1": 3, "y1": 3, "x2": 9, "y2": 9}
        try:

            async def main():
                client = await AsyncMapClient.connect(srv.address)
                try:
                    failed = await asyncio.wait_for(client.request(insert), 5.0)
                    assert failed["ok"] is False
                    assert failed["error"]["type"] == "OSError"
                    assert (await asyncio.wait_for(client.request(insert), 5.0))["ok"]
                finally:
                    await client.close()

            asyncio.run(main())
            gc = srv.stats()["group_commit"]
            assert gc["batches"] == 1 and gc["committed"] == 1
            assert _settles(lambda: srv.stats()["inflight"] == 0)
        finally:
            srv.stop()
            store.close()

    def test_commit_before_ack_survives_reopen(self, tmp_path):
        """Every acked mutation must be durable: reopen and re-query."""
        from repro.wal import DurableStore

        index = build_index("R*", lattice_map(n=4))
        store = DurableStore.create(tmp_path / "store", index)
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

        from repro.core.queries import QuerySpec
        from repro.geometry import Point

        store2 = DurableStore.open(tmp_path / "store")
        try:
            assert store2.last_lsn >= 1
            hits = QueryEngine(store2.index, store=store2).execute(
                QuerySpec.point(Point(3.0, 3.0))
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
        assert set(stats["dispatch"]) == {"loop", "executor"}
        assert set(stats["loop_hold"]) == {"count", "p99_seconds", "max_seconds"}

    def test_stop_is_idempotent(self):
        engine = QueryEngine(build_index("R*", lattice_map(n=4)))
        srv = AsyncMapServer(engine)
        srv.start_background()
        srv.stop()
        srv.stop()  # second stop is a no-op, not an error
