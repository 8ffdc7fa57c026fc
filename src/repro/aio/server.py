"""The asyncio map server: one event loop, thousands of connections.

:class:`AsyncMapServer` replaces thread-per-connection with a single
event loop plus a bounded executor for engine calls. It speaks both
wire protocols -- v1 newline-JSON exactly as the threaded
:class:`~repro.service.server.MapServer` does, and the negotiated v2
framing (:mod:`repro.aio.frames`) that lets one connection pipeline
many outstanding requests and receive responses out of order.

Architecture, per connection:

* a **reader** coroutine parses lines/frames off the socket (with the
  same idle timeout and size caps as the threaded server), runs
  admission control, and appends accepted requests to the connection's
  pending deque;
* one global **scheduler** drains those deques round-robin -- one
  request per connection per turn -- so a client pipelining thousands
  of requests cannot starve its neighbours (per-client fairness), and
  hands each request to the bounded executor;
* a **writer** coroutine owns the socket's write side: v1 responses go
  out in arrival order (the protocol has no ids, order *is* the
  correlation), v2 responses go out in completion order carrying their
  request id.

Admission control: past ``max_inflight_per_conn`` (or the global
``max_inflight_total`` high-water mark) a request is answered
immediately with a structured ``server_overloaded`` error -- it never
queues, so a saturated server stays responsive and its queues bounded.

Durability: mutations run through the engine's deferred commit barrier
(:meth:`~repro.service.engine.QueryEngine.execute_deferred`) and then
await the :class:`~repro.aio.commit.GroupCommitter` -- mutations from
*all* connections accumulate into one WAL fsync batch while the
previous fsync is in flight, with commit-before-ack preserved per
request: no response is written before an fsync covers its LSN.

What a request *means* -- decoding, the ``"v"`` pin, trace context,
execution, the envelope -- is the sans-IO protocol core
(:mod:`repro.service.protocol`), the same one the threaded server
calls; this module is framing, admission, scheduling and the group
commit wait, so the two servers differ in IO only (the
protocol-equivalence suite holds them to that).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.errors import ServerOverloadedError
from repro.aio.commit import GroupCommitter
from repro.aio.frames import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION_2,
    decode_header,
    encode_frame,
    split_trace_trailer,
)
from repro.service.api import PROTOCOL_VERSION
from repro.service.protocol import Envelope, Protocol, Request
from repro.service.server import _COMPACT, DEFAULT_IDLE_TIMEOUT, MAX_LINE_BYTES


class _WireReader:
    """Buffered reads off one socket: v1 lines, v2 frames, bounded drains.

    Owns its buffer so an oversized request can be discarded chunk by
    chunk without ever holding more than one read's worth of it, and so
    switching a connection from line framing to v2 frames mid-stream
    (negotiation) loses no pipelined bytes.
    """

    def __init__(self, reader: asyncio.StreamReader, max_line: int, max_frame: int) -> None:
        self._reader = reader
        self.max_line = max_line
        self.max_frame = max_frame
        self._buf = bytearray()

    async def _fill(self) -> bool:
        chunk = await self._reader.read(65536)
        if not chunk:
            return False
        self._buf.extend(chunk)
        return True

    async def read_line(self) -> Tuple[str, Any]:
        """``("line", bytes)``, ``("oversized", None)``, or ``("eof", None)``."""
        overflowed = False
        while True:
            i = self._buf.find(b"\n")
            if i >= 0:
                oversized = overflowed or i > self.max_line
                line = None if oversized else bytes(self._buf[:i])
                del self._buf[: i + 1]
                if oversized:
                    return ("oversized", None)
                return ("line", line)
            if len(self._buf) > self.max_line:
                overflowed = True  # discard-until-newline mode
                del self._buf[:]
            if not await self._fill():
                return ("eof", None)

    async def read_frame(self) -> Tuple[str, Any]:
        """``("frame", (flags, request_id, body))``, ``("oversized",
        request_id)``, or ``("eof", None)`` on a torn frame."""
        while len(self._buf) < HEADER_BYTES:
            if not await self._fill():
                return ("eof", None)
        flags, length, request_id = decode_header(bytes(self._buf[:HEADER_BYTES]))
        if length > self.max_frame:
            del self._buf[:HEADER_BYTES]
            need = length
            while need:
                take = min(need, len(self._buf))
                del self._buf[:take]
                need -= take
                if need and not await self._fill():
                    return ("eof", None)
            return ("oversized", request_id)
        total = HEADER_BYTES + length
        while len(self._buf) < total:
            if not await self._fill():
                return ("eof", None)  # torn frame: nothing to answer
        body = bytes(self._buf[HEADER_BYTES:total])
        del self._buf[:total]
        return ("frame", (flags, request_id, body))


class _Req:
    __slots__ = ("request", "wire", "request_id", "arrived", "future")

    def __init__(self, request: Request, wire, request_id, arrived) -> None:
        self.request = request
        self.wire = wire  # 1 = line framing, 2 = v2 frames
        self.request_id = request_id
        self.arrived = arrived
        self.future: Optional[asyncio.Future] = None  # v1 ordering slot


class _Conn:
    __slots__ = (
        "conn_id",
        "wire",
        "writer",
        "session",
        "mode",
        "pending",
        "in_ready",
        "inflight",
        "write_q",
        "closed",
    )

    def __init__(self, conn_id, wire, writer, session) -> None:
        self.conn_id = conn_id
        self.wire = wire
        self.writer = writer
        self.session = session
        self.mode = 1  # until a request pins "v": 2
        self.pending: Deque[_Req] = deque()
        self.in_ready = False
        self.inflight = 0
        self.write_q: asyncio.Queue = asyncio.Queue()
        self.closed = False


class AsyncMapServer:
    """Event-loop server speaking v1 and v2 over one protocol target.

    ``target`` is a :class:`~repro.service.engine.QueryEngine` or a
    router (see :mod:`repro.service.protocol`). Use
    :meth:`start_background` from synchronous code (tests, benches) or
    ``await`` :meth:`start` / :meth:`serve_forever` from an event loop
    (the CLI).
    """

    def __init__(
        self,
        target,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        max_line_bytes: int = MAX_LINE_BYTES,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_inflight_per_conn: int = 64,
        max_inflight_total: int = 1024,
        executor_workers: int = 4,
    ) -> None:
        self.protocol = Protocol(target, (PROTOCOL_VERSION, PROTOCOL_VERSION_2))
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.max_line_bytes = max_line_bytes
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight_per_conn = max_inflight_per_conn
        self.max_inflight_total = max_inflight_total
        self.executor_workers = executor_workers
        self.registry = target.registry
        self.committer: Optional[GroupCommitter] = None
        self.address: Tuple[str, int] = (host, port)

        self._conn_ids = itertools.count(1)
        self._conns: Set[_Conn] = set()
        self._ready: Deque[_Conn] = deque()
        self._queued = 0
        self._inflight_total = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._fsync_executor: Optional[ThreadPoolExecutor] = None
        self._sched_task: Optional[asyncio.Task] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._run_tasks: Set[asyncio.Task] = set()
        self._work: Optional[asyncio.Event] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_ready: Optional[threading.Event] = None
        self._thread_error: Optional[BaseException] = None

        reg = self.registry
        self._g_connections = reg.gauge("repro_server_connections")
        self._g_inflight = reg.gauge("repro_server_inflight")
        self._g_queue_depth = reg.gauge("repro_server_queue_depth")
        self._c_requests = {
            1: reg.counter("repro_server_requests_total", proto="v1"),
            2: reg.counter("repro_server_requests_total", proto="v2"),
        }
        self._c_overloaded = reg.counter("repro_server_overloaded_total")
        self._c_oversized = reg.counter("repro_server_frames_oversized_total")
        self._c_idle_timeouts = reg.counter("repro_server_idle_timeouts_total")
        self._h_queue_wait = reg.histogram("repro_server_queue_wait_seconds")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the scheduler."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers, thread_name_prefix="aio-engine"
        )
        store = getattr(self.protocol.target, "store", None)
        if store is not None:
            # Fsyncs get their own single thread so a burst of engine
            # work cannot queue ahead of the durability path.
            self._fsync_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="aio-fsync"
            )
            self.committer = GroupCommitter(store, self._loop, self._fsync_executor)
        self._work = asyncio.Event()
        self._sem = asyncio.Semaphore(max(2, self.executor_workers * 2))
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._sched_task = self._loop.create_task(self._scheduler())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Close the listener, sever connections, stop the workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._sched_task is not None:
            self._sched_task.cancel()
        for task in list(self._run_tasks) + list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(
            *self._run_tasks, *self._conn_tasks, return_exceptions=True
        )
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        if self._fsync_executor is not None:
            self._fsync_executor.shutdown(wait=True, cancel_futures=True)

    # -- background-thread mode (tests, benches, loadgen) ---------------
    def start_background(self) -> threading.Thread:
        """Run the event loop on a daemon thread; returns once bound."""
        self._thread_ready = threading.Event()
        thread = threading.Thread(
            target=self._thread_main, name="aio-map-server", daemon=True
        )
        self._thread = thread  # repro-lint: disable=CC03 -- lifecycle field: start_background/stop are called by the single owning thread, never concurrently
        thread.start()
        if not self._thread_ready.wait(timeout=10.0):
            raise RuntimeError("async server failed to start within 10s")
        if self._thread_error is not None:
            raise RuntimeError(
                f"async server failed to start: {self._thread_error}"
            ) from self._thread_error
        return thread

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._thread_body())
        except BaseException as exc:  # surfaced to start_background/stop
            self._thread_error = exc
            if self._thread_ready is not None:
                self._thread_ready.set()

    async def _thread_body(self) -> None:
        await self.start()
        self._stop_event = asyncio.Event()
        self._thread_ready.set()
        await self._stop_event.wait()
        await self.shutdown()

    def stop(self) -> None:
        """Deterministic shutdown of a :meth:`start_background` server."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed: the thread is on its way out
        self._thread.join(timeout=10.0)
        self._thread = None  # repro-lint: disable=CC03 -- lifecycle field: see start_background; stop runs after the loop thread exited

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn_id = next(self._conn_ids)
        conn = _Conn(
            conn_id,
            _WireReader(reader, self.max_line_bytes, self.max_frame_bytes),
            writer,
            self.protocol.session(f"aconn-{conn_id}"),
        )
        self._conns.add(conn)
        self._g_connections.set(len(self._conns))
        writer_task = self._loop.create_task(self._writer_loop(conn))
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass  # shutdown cancelled us; fall through to the teardown below
        finally:
            conn.closed = True
            self._conns.discard(conn)
            self._g_connections.set(len(self._conns))
            conn.write_q.put_nowait(None)  # sentinel: writer drains out
            writer_task.cancel()
            try:
                await asyncio.gather(writer_task, return_exceptions=True)
            except asyncio.CancelledError:
                pass  # shutdown cancelled the teardown await itself
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # peer already gone; the close still released the fd
            self._conn_tasks.discard(task)

    async def _read_loop(self, conn: _Conn) -> None:
        while True:
            read = (
                conn.wire.read_line() if conn.mode == 1 else conn.wire.read_frame()
            )
            try:
                if self.idle_timeout is not None:
                    kind, value = await asyncio.wait_for(read, self.idle_timeout)
                else:
                    kind, value = await read
            except asyncio.TimeoutError:
                self._c_idle_timeouts.inc()
                return  # idle connection: close it cleanly
            except (ConnectionError, OSError):
                return
            if kind == "eof":
                return
            wire = conn.mode  # the framing this request is answered in
            if kind == "oversized":
                self._c_oversized.inc()
                limit = self.max_line_bytes if wire == 1 else self.max_frame_bytes
                request_id = value if value is not None else 0
                self._respond_immediate(
                    conn, self.protocol.oversized(limit), wire, request_id
                )
                continue
            if wire == 1:
                request_id = 0
                request = self.protocol.decode_line(value)
                if request is None:
                    continue  # blank line: no reply is owed
                if request.version == PROTOCOL_VERSION_2:
                    # Upgrade: this request is answered in v1 with "v": 2
                    # echoed; every byte the client sends after it is
                    # parsed as frames.
                    conn.mode = 2
            else:
                flags, request_id, body = value
                request = self.protocol.decode_frame(
                    *split_trace_trailer(flags, body)
                )
            if request.error is not None:
                # Undecodable: nothing to queue or block on, so the
                # reader answers in place.
                self._respond_immediate(
                    conn, self.protocol.run(request)[0], wire, request_id
                )
                continue
            self._admit(conn, _Req(request, wire, request_id, self._loop.time()))

    # ------------------------------------------------------------------
    # Admission, scheduling, dispatch
    # ------------------------------------------------------------------
    def _admit(self, conn: _Conn, req: _Req) -> None:
        self._c_requests[req.wire].inc()
        if (
            conn.inflight >= self.max_inflight_per_conn
            or self._inflight_total >= self.max_inflight_total
        ):
            self._c_overloaded.inc()
            envelope = self.protocol.failed(
                req.request,
                ServerOverloadedError(
                    f"server overloaded: connection has {conn.inflight} "
                    f"requests in flight "
                    f"(limits: {self.max_inflight_per_conn}/connection, "
                    f"{self.max_inflight_total} total); retry later"
                ),
            )
            self._respond_immediate(conn, envelope, req.wire, req.request_id)
            return
        conn.inflight += 1
        self._inflight_total += 1  # repro-lint: disable=CC03 -- event-loop confined: _admit and _run both run on the loop thread; _sem bounds executor handoffs, it guards no state
        self._g_inflight.set(self._inflight_total)
        if req.wire == 1:
            # v1 has no request ids: the response slot is reserved *now*
            # so responses leave in arrival order however execution lands.
            req.future = self._loop.create_future()
            conn.write_q.put_nowait(("fut", req))
        conn.pending.append(req)
        self._queued += 1  # repro-lint: disable=CC03 -- event-loop confined: only the loop thread mutates the queue depth
        self._g_queue_depth.set(self._queued)
        if not conn.in_ready:
            conn.in_ready = True
            self._ready.append(conn)
        self._work.set()

    async def _scheduler(self) -> None:
        """Round-robin drain: one request per ready connection per turn."""
        while True:
            await self._work.wait()
            if not self._ready:
                self._work.clear()
                continue
            conn = self._ready.popleft()
            if not conn.pending:
                conn.in_ready = False
                continue
            req = conn.pending.popleft()
            self._queued -= 1  # repro-lint: disable=CC03 -- event-loop confined: the scheduler is a loop task
            self._g_queue_depth.set(self._queued)
            if conn.pending:
                self._ready.append(conn)
            else:
                conn.in_ready = False
            # The semaphore bounds concurrent executor handoffs; waiting
            # here (not in the task) keeps the round-robin order honest.
            await self._sem.acquire()  # repro-lint: disable=CC04 -- acquired here, released in _run's finally: the slot spans the task boundary by design, so `with` cannot express it
            task = self._loop.create_task(self._run(conn, req))
            self._run_tasks.add(task)
            task.add_done_callback(self._run_tasks.discard)

    async def _run(self, conn: _Conn, req: _Req) -> None:
        try:
            self._h_queue_wait.observe(self._loop.time() - req.arrived)
            if conn.closed:
                envelope: Envelope = {"ok": False}
            else:
                try:
                    envelope, lsn = await self._loop.run_in_executor(
                        self._executor,
                        self.protocol.run,
                        req.request,
                        conn.session,
                        self.committer is not None,
                    )
                    if lsn is not None:
                        await self.committer.wait_durable(lsn)
                except Exception as exc:  # commit-before-ack: no fsync, no ack
                    envelope = self.protocol.failed(req.request, exc)
            self._send(conn, req, envelope)
        finally:
            self._sem.release()
            conn.inflight -= 1
            self._inflight_total -= 1  # repro-lint: disable=CC03 -- event-loop confined: _run is a loop task; see _admit
            self._g_inflight.set(self._inflight_total)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(envelope: Dict[str, Any], wire: int, request_id: int) -> bytes:
        if wire == 1:
            return json.dumps(envelope, separators=_COMPACT).encode("utf-8") + b"\n"
        return encode_frame(request_id, envelope, response=True)

    def _send(self, conn: _Conn, req: _Req, envelope: Dict[str, Any]) -> None:
        data = self._encode(envelope, req.wire, req.request_id)
        if req.wire == 1:
            if not req.future.done():
                req.future.set_result(data)
        else:
            conn.write_q.put_nowait(("data", data))

    def _respond_immediate(
        self, conn: _Conn, envelope: Dict[str, Any], wire: int, request_id: int
    ) -> None:
        """Reader-side responses (parse errors, admission, oversized).

        Enqueued directly: the write queue is FIFO, so relative to v1
        futures (enqueued at arrival) this still answers in order.
        """
        conn.write_q.put_nowait(("data", self._encode(envelope, wire, request_id)))

    async def _writer_loop(self, conn: _Conn) -> None:
        while True:
            item = await conn.write_q.get()
            if item is None:
                return
            kind, value = item
            data = await value.future if kind == "fut" else value
            try:
                conn.writer.write(data)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                return  # peer gone: responses have nowhere to go

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = {
            "connections": len(self._conns),
            "inflight": self._inflight_total,
            "queued": self._queued,
        }
        if self.committer is not None:
            out["group_commit"] = self.committer.stats()
        return out
