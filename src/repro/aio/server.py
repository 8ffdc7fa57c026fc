"""The asyncio map server: one event loop, thousands of connections.

:class:`AsyncMapServer` replaces thread-per-connection with a single
event loop. It speaks both wire protocols -- v1 newline-JSON exactly as
the threaded :class:`~repro.service.server.MapServer` does, and the
negotiated v2 framing (:mod:`repro.aio.frames`) that lets one connection
pipeline many outstanding requests and receive responses out of order.

Which thread runs what, and why. The engine's traversals are serialized
twice over -- by the GIL, and by ``QueryEngine.latch``, a plain mutex
around the single-threaded buffer pool -- so a thread pool buys a short
read no parallelism; it only costs two cross-core wake-ups per request
(loop -> worker -> loop). So:

* a **short read** (:meth:`Protocol.is_short
  <repro.service.protocol.Protocol.is_short>`: ``ping``/``clock``/
  ``point``, small ``nearest``/``window``, engine target) runs **on the
  loop thread**, but only while no request is inside the executor: then
  no worker can hold the latch or any other lock the read needs, and the
  loop never waits;
* everything else -- mutations (the WAL fsyncs under its log lock),
  ``batch``, ``checkpoint``, ``check``, ``stats``, ``profile``, big
  windows, every request of a router target (blocking scatter), and any
  read that arrives while a worker is busy -- runs on the bounded
  **executor** (:data:`EXECUTOR_WORKERS` threads);
* WAL fsyncs have their own single thread.

What the loop thread may never do: wait on a lock a worker can hold,
fsync, or scatter over sockets.

Per connection:

* a **reader** coroutine parses lines/frames off the socket (same size
  caps as the threaded server), runs admission control, and appends
  accepted requests to the connection's pending deque. It awaits the
  transport's ``drain()`` before each read, so a peer that does not
  read its responses stops being read from (backpressure);
* an **idle timer** -- one re-armed ``call_at`` keyed on the last
  *complete* request, so a frame trickled byte by byte still times out;
* one global **scheduler** drains the pending deques round-robin -- one
  request per connection per pass, yielding to the loop between passes
  -- so a client pipelining thousands of requests cannot starve its
  neighbours, nor inline work starve accepts, reads and timers;
* responses are written straight to the transport: v2 frames in
  completion order carrying their request id, v1 lines through the
  connection's ordered slots (the protocol has no ids, arrival order
  *is* the correlation; a v2 frame completed while a v1 slot -- the
  upgrade ack -- is still open queues behind it).

Admission control: past :data:`MAX_INFLIGHT_PER_CONN` (or the global
:data:`MAX_INFLIGHT_TOTAL` high-water mark) a request is answered
immediately with a structured ``server_overloaded`` error -- it never
queues, so a saturated server stays responsive and its queues bounded.

Durability: mutations run through the engine's deferred commit barrier
(:meth:`~repro.service.engine.QueryEngine.execute_deferred`) and then
await the :class:`~repro.aio.commit.GroupCommitter` -- mutations from
*all* connections accumulate into one WAL fsync batch while the
previous fsync is in flight, with commit-before-ack preserved per
request: no response is written before an fsync covers its LSN.

What a request *means* -- decoding, the ``"v"`` pin, trace context,
execution, the envelope, and whether it is short -- is the sans-IO
protocol core (:mod:`repro.service.protocol`), the same one the
threaded server calls; this module is framing, admission, scheduling
and the group commit wait, so the two servers differ in IO only (the
protocol-equivalence suite holds them to that).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ServerOverloadedError
from repro.metric_names import SERVER_DISPATCH_TOTAL, SERVER_LOOP_HOLD_SECONDS
from repro.aio.commit import GroupCommitter
from repro.aio.frames import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION_2,
    decode_header,
    encode_frame,
)
from repro.service.api import PROTOCOL_VERSION
from repro.service.protocol import Protocol, Request
from repro.service.server import _COMPACT, DEFAULT_IDLE_TIMEOUT, MAX_LINE_BYTES

#: Admitted requests one connection may have in flight, and all of them
#: together; past either the request is answered ``server_overloaded``.
MAX_INFLIGHT_PER_CONN = 64
MAX_INFLIGHT_TOTAL = 1024
#: Threads of the executor that runs long and blocking requests.
EXECUTOR_WORKERS = 4


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
    __slots__ = ("request", "wire", "request_id", "arrived", "slot")

    def __init__(self, request: Request, wire, request_id, arrived) -> None:
        self.request = request
        self.wire = wire  # 1 = line framing, 2 = v2 frames
        self.request_id = request_id
        self.arrived = arrived
        self.slot: Optional[List[Optional[bytes]]] = None  # v1 ordering slot


class _Conn:
    __slots__ = (
        "conn_id",
        "wire",
        "writer",
        "session",
        "task",
        "mode",
        "pending",
        "in_ready",
        "inflight",
        "ordered",
        "last_request",
        "idle_timer",
        "closed",
    )

    def __init__(self, conn_id, wire, writer, session, task, now) -> None:
        self.conn_id = conn_id
        self.wire = wire
        self.writer = writer
        self.session = session
        self.task = task  # the connection's reader task
        self.mode = 1  # until a request pins "v": 2
        self.pending: Deque[_Req] = deque()
        self.in_ready = False
        self.inflight = 0
        # Responses that must leave in order: one-element slots, filled
        # (``[bytes]``) or still waiting for their request (``[None]``).
        self.ordered: Deque[List[Optional[bytes]]] = deque()
        self.last_request = now
        self.idle_timer: Optional[asyncio.TimerHandle] = None
        self.closed = False


class AsyncMapServer:
    """Event-loop server speaking v1 and v2 over one protocol target.

    ``target`` is a :class:`~repro.service.engine.QueryEngine` or a
    router (see :mod:`repro.service.protocol`). Use
    :meth:`start_background` from synchronous code (tests, benches) or
    ``await`` :meth:`start` / :meth:`serve_forever` from an event loop
    (the CLI). :data:`EXECUTOR_WORKERS` threads run long and blocking
    requests; short reads run on the loop thread (see the module
    docstring). The size caps and in-flight limits are this module's
    constants, read when a server starts or a connection opens.
    """

    def __init__(
        self,
        target,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
    ) -> None:
        self.protocol = Protocol(target, (PROTOCOL_VERSION, PROTOCOL_VERSION_2))
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.registry = target.registry
        self.committer: Optional[GroupCommitter] = None
        self.address: Tuple[str, int] = (host, port)

        # Everything from here to the metric handles is touched by the
        # loop thread only (start_background/stop own the last three).
        self._conn_ids = itertools.count(1)
        self._conns: Set[_Conn] = set()
        self._ready: Deque[_Conn] = deque()
        self._queued = 0
        self._inflight_total = 0
        #: Requests handed to the executor whose worker has not returned.
        #: Bounded (fairness: the executor's own queue is FIFO across
        #: connections), and zero is what lets a short read run inline.
        self._in_executor = 0
        self._loop_hold_max = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._fsync_executor: Optional[ThreadPoolExecutor] = None
        self._sched_task: Optional[asyncio.Task] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._run_tasks: Set[asyncio.Task] = set()
        self._work: Optional[asyncio.Event] = None
        self._worker_done: Optional[asyncio.Event] = None
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
        self._c_on_loop = reg.counter(SERVER_DISPATCH_TOTAL, path="loop")
        self._c_on_executor = reg.counter(SERVER_DISPATCH_TOTAL, path="executor")
        self._h_loop_hold = reg.histogram(SERVER_LOOP_HOLD_SECONDS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the scheduler."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_WORKERS, thread_name_prefix="aio-engine"
        )
        self._executor_handoffs = max(2, EXECUTOR_WORKERS * 2)
        store = getattr(self.protocol.target, "store", None)
        if store is not None:
            # Fsyncs get their own single thread so a burst of engine
            # work cannot queue ahead of the durability path.
            self._fsync_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="aio-fsync"
            )
            self.committer = GroupCommitter(store, self._loop, self._fsync_executor)
        self._work = asyncio.Event()
        self._worker_done = asyncio.Event()
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

    # -- background-thread mode (tests, benches) ------------------------
    def start_background(self) -> threading.Thread:
        """Run the event loop on a daemon thread; returns once bound."""
        self._thread_ready = threading.Event()
        thread = threading.Thread(
            target=self._thread_main, name="aio-map-server", daemon=True
        )
        self._thread = thread
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
        self._thread = None

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
            _WireReader(reader, MAX_LINE_BYTES, MAX_FRAME_BYTES),
            writer,
            self.protocol.session(f"aconn-{conn_id}"),
            task,
            self._loop.time(),
        )
        self._conns.add(conn)
        self._g_connections.set(len(self._conns))
        if self.idle_timeout is not None:
            self._arm_idle_timer(conn)
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass  # idle timer or shutdown cancelled us; tear down below
        finally:
            conn.closed = True
            # Folding the session takes the engine latch: here, like a
            # short read, only while no worker can be holding it.
            if conn.session is None or self._in_executor == 0:
                self.protocol.end_session(conn.session)
            else:
                self._loop.run_in_executor(
                    self._executor, self.protocol.end_session, conn.session
                )
            if conn.idle_timer is not None:
                conn.idle_timer.cancel()
            self._conns.discard(conn)
            self._g_connections.set(len(self._conns))
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # peer already gone; the close still released the fd
            self._conn_tasks.discard(task)

    def _arm_idle_timer(self, conn: _Conn) -> None:
        conn.idle_timer = self._loop.call_at(
            conn.last_request + self.idle_timeout, self._idle_check, conn
        )

    def _idle_check(self, conn: _Conn) -> None:
        """One timer per connection, re-armed here -- never per request."""
        if self._loop.time() < conn.last_request + self.idle_timeout:
            self._arm_idle_timer(conn)  # a request completed since arming
        else:
            self._c_idle_timeouts.inc()
            conn.task.cancel()  # idle connection: close it cleanly

    async def _read_loop(self, conn: _Conn) -> None:
        while True:
            try:
                # Backpressure: while the peer is not reading its
                # responses (transport above its high-water mark), stop
                # reading its requests.
                await conn.writer.drain()
                if conn.mode == 1:
                    kind, value = await conn.wire.read_line()
                else:
                    kind, value = await conn.wire.read_frame()
            except (ConnectionError, OSError):
                return
            if kind == "eof":
                return
            now = conn.last_request = self._loop.time()
            wire = conn.mode  # the framing this request is answered in
            if kind == "oversized":
                self._c_oversized.inc()
                limit = conn.wire.max_line if wire == 1 else conn.wire.max_frame
                request_id = value if value is not None else 0
                self._respond(
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
                request = self.protocol.decode_frame(body, flags)
            if request.error is not None:
                # Undecodable: nothing to queue or block on, so the
                # reader answers in place.
                self._respond(
                    conn, self.protocol.run(request)[0], wire, request_id
                )
                continue
            self._admit(conn, _Req(request, wire, request_id, now))

    # ------------------------------------------------------------------
    # Admission, scheduling, dispatch
    # ------------------------------------------------------------------
    def _admit(self, conn: _Conn, req: _Req) -> None:
        self._c_requests[req.wire].inc()
        if (
            conn.inflight >= MAX_INFLIGHT_PER_CONN
            or self._inflight_total >= MAX_INFLIGHT_TOTAL
        ):
            self._c_overloaded.inc()
            envelope = self.protocol.failed(
                req.request,
                ServerOverloadedError(
                    f"server overloaded: connection has {conn.inflight} "
                    f"requests in flight "
                    f"(limits: {MAX_INFLIGHT_PER_CONN}/connection, "
                    f"{MAX_INFLIGHT_TOTAL} total); retry later"
                ),
            )
            self._respond(conn, envelope, req.wire, req.request_id)
            return
        conn.inflight += 1
        self._inflight_total += 1
        self._g_inflight.set(self._inflight_total)
        if req.wire == 1:
            # v1 has no request ids: the response slot is reserved *now*
            # so responses leave in arrival order however execution lands.
            req.slot = [None]
            conn.ordered.append(req.slot)
        conn.pending.append(req)
        self._queued += 1
        self._g_queue_depth.set(self._queued)
        if not conn.in_ready:
            conn.in_ready = True
            self._ready.append(conn)
        self._work.set()

    async def _scheduler(self) -> None:
        """Round-robin drain: one request per ready connection per pass.

        Every pass is preceded by exactly one yield to the loop, so
        requests run inline cannot starve accepts, reads and timers.
        """
        ready = self._ready
        while True:
            if ready:
                await asyncio.sleep(0)
            else:
                self._work.clear()
                await self._work.wait()
            for _ in range(len(ready)):
                # In _ready <=> in_ready <=> pending is non-empty.
                conn = ready.popleft()
                req = conn.pending.popleft()
                self._queued -= 1
                self._g_queue_depth.set(self._queued)
                if conn.pending:
                    ready.append(conn)
                else:
                    conn.in_ready = False
                self._h_queue_wait.observe(self._loop.time() - req.arrived)
                if conn.closed:
                    self._finish(conn)  # peer gone: nobody to answer
                elif self._in_executor == 0 and self.protocol.is_short(req.request):
                    self._run_on_loop(conn, req)
                else:
                    # Waiting here (not in the task) keeps the
                    # round-robin order honest.
                    while self._in_executor >= self._executor_handoffs:
                        self._worker_done.clear()
                        await self._worker_done.wait()
                    self._in_executor += 1
                    worker = self._loop.run_in_executor(
                        self._executor,
                        self.protocol.run,
                        req.request,
                        conn.session,
                        self.committer is not None,
                    )
                    worker.add_done_callback(self._worker_returned)
                    task = self._loop.create_task(
                        self._answer_from_executor(conn, req, worker)
                    )
                    self._run_tasks.add(task)
                    task.add_done_callback(self._run_tasks.discard)

    def _worker_returned(self, _worker: asyncio.Future) -> None:
        self._in_executor -= 1
        self._worker_done.set()

    def _run_on_loop(self, conn: _Conn, req: _Req) -> None:
        """A short read, run where it stands: no worker is inside the
        executor, so no lock it takes can be held by another thread."""
        start = time.perf_counter()
        try:
            self._send(conn, req, self.protocol.run(req.request, conn.session)[0])
        finally:
            self._finish(conn)
            held = time.perf_counter() - start
            self._h_loop_hold.observe_and_count(held, self._c_on_loop)
            if held > self._loop_hold_max:
                self._loop_hold_max = held

    async def _answer_from_executor(
        self, conn: _Conn, req: _Req, worker: asyncio.Future
    ) -> None:
        self._c_on_executor.inc()
        try:
            try:
                envelope, lsn = await worker
                if lsn is not None:
                    await self.committer.wait_durable(lsn)
            except Exception as exc:  # commit-before-ack: no fsync, no ack
                envelope = self.protocol.failed(req.request, exc)
            self._send(conn, req, envelope)
        finally:
            self._finish(conn)

    def _finish(self, conn: _Conn) -> None:
        conn.inflight -= 1
        self._inflight_total -= 1
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
        """The response of an admitted request."""
        if req.slot is None:
            self._respond(conn, envelope, req.wire, req.request_id)
            return
        req.slot[0] = self._encode(envelope, req.wire, req.request_id)
        ordered = conn.ordered
        while ordered and ordered[0][0] is not None:
            self._write(conn, ordered.popleft()[0])

    def _respond(
        self, conn: _Conn, envelope: Dict[str, Any], wire: int, request_id: int
    ) -> None:
        """A response with no reserved slot: a v2 frame, or the reader's
        own answers (parse errors, admission, oversized). Straight to
        the transport -- unless ordered slots are open, which it may not
        overtake: a v1 answer is then later in arrival order, and a v2
        frame must not precede the upgrade ack.
        """
        data = self._encode(envelope, wire, request_id)
        if conn.ordered:
            conn.ordered.append([data])
        else:
            self._write(conn, data)

    @staticmethod
    def _write(conn: _Conn, data: bytes) -> None:
        if not conn.closed:  # else the peer is gone: nowhere to go
            conn.writer.write(data)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = {
            "connections": len(self._conns),
            "inflight": self._inflight_total,
            "queued": self._queued,
            "dispatch": {
                "loop": self._c_on_loop.value,
                "executor": self._c_on_executor.value,
            },
            "loop_hold": {
                "count": self._h_loop_hold.total,
                "p99_seconds": self._h_loop_hold.percentile(0.99),
                "max_seconds": self._loop_hold_max,
            },
        }
        if self.committer is not None:
            out["group_commit"] = self.committer.stats()
        return out
