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

Each connection is one :class:`asyncio.Protocol` (:class:`_Conn`), so a
short read costs callbacks only -- no task, no future, no extra turn of
the loop:

* ``data_received`` feeds the connection's sans-IO :class:`_Splitter`,
  which cuts v1 lines and v2 frames off its buffer under the same size
  caps as the threaded server (an oversized payload is counted down as
  it arrives, never buffered); each request goes through admission
  control onto the connection's pending deque;
* **backpressure**: ``pause_writing`` -- the transport's write buffer
  passed its high-water mark because the peer does not read its
  responses -- pauses *reading* that peer, and ``resume_writing``
  resumes it;
* an **idle timer** -- one re-armed ``call_at`` keyed on the last
  *complete* request, so a frame trickled byte by byte still times out
  -- closes the transport, and ``connection_lost`` ends the session.

One **scheduling pass** serves the pending deques round-robin, one
request per ready connection. It runs straight from ``data_received``
when no pass is pending; while connections stay ready the next pass is
one ``call_soon`` away, so a client pipelining thousands of requests
cannot starve its neighbours, nor inline work starve accepts, reads and
timers. At the executor hand-off cap the pass stops where it is, and
the next worker to return resumes it.

A v1 connection is read one request at a time, as the threaded server
reads it: while its request is in flight nothing more is cut from its
buffer (and past one line's worth the transport stops reading), so its
answers leave in arrival order -- the protocol has no ids, order *is*
the correlation -- and it never has more than one request to admit.
The upgrade line is a v1 request too, so its ack precedes every v2
frame. v2 frames are cut as they arrive, run concurrently and are
answered in completion order, each carrying its request id; every
response is written straight to the transport.

Admission control: past :data:`MAX_INFLIGHT_PER_CONN` (which only a v2
connection can reach) or the global :data:`MAX_INFLIGHT_TOTAL`
high-water mark, a request is answered immediately with a structured
``server_overloaded`` error -- it never queues, so a saturated server
stays responsive and its queues bounded.

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
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.errors import ServerOverloadedError
from repro.metric_names import SERVER_DISPATCH_TOTAL, SERVER_LOOP_HOLD_SECONDS
from repro.aio.commit import GroupCommitter
from repro.aio.frames import (
    FRAME_HEADER,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION_2,
    encode_frame,
)
from repro.service.api import PROTOCOL_VERSION
from repro.service.protocol import Protocol, Request, encode_json
from repro.service.server import DEFAULT_IDLE_TIMEOUT, MAX_LINE_BYTES

#: Admitted requests one connection may have in flight, and all of them
#: together; past either the request is answered ``server_overloaded``.
MAX_INFLIGHT_PER_CONN = 64
MAX_INFLIGHT_TOTAL = 1024
#: Threads of the executor that runs long and blocking requests.
EXECUTOR_WORKERS = 4


class _Splitter:
    """Cuts v1 lines and v2 frames off one connection's bytes, sans IO.

    Owns the connection's buffer, so switching from line framing to v2
    frames mid-stream (negotiation) loses no pipelined bytes. Nothing
    past a cap is kept: a v1 line longer than ``max_line`` is discarded
    up to its newline, and the payload of a frame longer than
    ``max_frame`` is counted down as it arrives.
    """

    __slots__ = ("max_line", "max_frame", "_buf", "_overflowed", "_skip", "_skip_id")

    def __init__(self, max_line: int, max_frame: int) -> None:
        self.max_line = max_line
        self.max_frame = max_frame
        self._buf = bytearray()
        self._overflowed = False  # v1: past the cap, discard to the newline
        self._skip = 0  # v2: payload bytes of an oversized frame still due
        self._skip_id: Optional[int] = None  # ... and that frame's request id

    def feed(self, data: bytes) -> None:
        if self._skip:  # then the buffer is empty
            take = min(self._skip, len(data))
            self._skip -= take
            data = data[take:]
        self._buf += data

    def __len__(self) -> int:
        return len(self._buf)

    def cut(self, mode: int) -> Optional[Tuple[str, Any]]:
        """The next request in framing ``mode`` (1 = lines, 2 = frames),
        or ``None`` until more bytes arrive: ``("line", bytes)``,
        ``("frame", (flags, request_id, body))``, or ``("oversized",
        request_id)`` -- ``None`` for a line, which has no id."""
        buf = self._buf
        if mode == 1:
            i = buf.find(b"\n")
            if i < 0:
                if len(buf) > self.max_line:
                    self._overflowed = True
                    del buf[:]
                return None
            oversized = self._overflowed or i > self.max_line
            line = None if oversized else bytes(buf[:i])
            del buf[: i + 1]
            if oversized:
                self._overflowed = False
                return ("oversized", None)
            return ("line", line)
        if self._skip_id is None:
            if len(buf) < HEADER_BYTES:
                return None
            flags, length, request_id = FRAME_HEADER.unpack_from(buf)
            total = HEADER_BYTES + length
            if length <= self.max_frame:
                if len(buf) < total:
                    return None  # a torn frame stays unanswered at EOF
                body = bytes(buf[HEADER_BYTES:total])
                del buf[:total]
                return ("frame", (flags, request_id, body))
            take = min(total, len(buf))
            del buf[:take]
            self._skip = total - take
            self._skip_id = request_id
        if self._skip:
            return None
        request_id, self._skip_id = self._skip_id, None
        return ("oversized", request_id)


class _Req:
    __slots__ = ("request", "wire", "request_id", "arrived")

    def __init__(self, request: Request, wire, request_id, arrived) -> None:
        self.request = request
        self.wire = wire  # 1 = line framing, 2 = v2 frames
        self.request_id = request_id
        self.arrived = arrived


class _Conn(asyncio.Protocol):
    """One connection: its state, and the transport's callbacks, which
    the server handles."""

    __slots__ = (
        "server",
        "transport",
        "conn_id",
        "splitter",
        "session",
        "mode",
        "pending",
        "in_ready",
        "inflight",
        "v1_busy",
        "last_request",
        "idle_timer",
        "paused",
        "closed",
    )

    def __init__(self, server: "AsyncMapServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.conn_id = 0
        self.splitter = _Splitter(MAX_LINE_BYTES, MAX_FRAME_BYTES)
        self.session = None
        self.mode = 1  # until a request pins "v": 2
        self.pending: Deque[_Req] = deque()
        self.in_ready = False
        self.inflight = 0
        self.v1_busy = False  # a v1 request is in flight: cut nothing more
        self.last_request = 0.0
        self.idle_timer: Optional[asyncio.TimerHandle] = None
        self.paused = False  # the peer is not reading: neither do we
        self.closed = False

    def connection_made(self, transport) -> None:
        self.server._opened(self, transport)

    def data_received(self, data: bytes) -> None:
        self.server._received(self, data)

    def eof_received(self) -> None:
        self.server._close(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._close(self)

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.transport.resume_reading()
        # Requests already in the buffer are not announced again.
        self.server._loop.call_soon(self.server._received, self, b"")


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
        #: A pass is scheduled, or stopped at the hand-off cap (stalled).
        self._pass_pending = False
        self._stalled = False
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
        self._run_tasks: Set[asyncio.Task] = set()
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
        """Bind the listening socket and start the executors."""
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
        self._server = await self._loop.create_server(
            lambda: _Conn(self), self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Close the listener, sever connections, stop the workers."""
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            self._close(conn)
            conn.transport.abort()  # severed: unsent responses are dropped
        if self._server is not None:
            await self._server.wait_closed()
        for task in list(self._run_tasks):
            task.cancel()
        await asyncio.gather(*self._run_tasks, return_exceptions=True)
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
    def _opened(self, conn: _Conn, transport) -> None:
        conn.transport = transport
        conn.conn_id = next(self._conn_ids)
        conn.session = self.protocol.session(f"aconn-{conn.conn_id}")
        conn.last_request = self._loop.time()
        self._conns.add(conn)
        self._g_connections.set(len(self._conns))
        if self.idle_timeout is not None:
            self._arm_idle_timer(conn)

    def _close(self, conn: _Conn) -> None:
        """Stop serving a connection and end its session; idempotent.

        Requests of it still pending are dropped unanswered as the pass
        reaches them.
        """
        if conn.closed:
            return
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
        conn.transport.close()  # after what is already written

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
            self._close(conn)  # idle connection: close it cleanly

    def _received(self, conn: _Conn, data: bytes) -> None:
        """Cut every whole request out of what arrived and admit it --
        until the peer stops reading its responses, or a v1 request is
        in flight -- then serve."""
        splitter = conn.splitter
        splitter.feed(data)
        protocol = self.protocol
        while not (conn.paused or conn.closed or conn.v1_busy):
            cut = splitter.cut(conn.mode)
            if cut is None:
                break
            kind, value = cut
            now = conn.last_request = self._loop.time()
            wire = conn.mode  # the framing this request is answered in
            if kind == "oversized":
                self._c_oversized.inc()
                limit = splitter.max_line if wire == 1 else splitter.max_frame
                request_id = value if value is not None else 0
                self._respond(conn, protocol.oversized(limit), wire, request_id)
                continue
            if wire == 1:
                request_id = 0
                request = protocol.decode_line(value)
                if request is None:
                    continue  # blank line: no reply is owed
                if request.version == PROTOCOL_VERSION_2:
                    # Upgrade: this request is answered in v1 with "v": 2
                    # echoed; every byte the client sends after it is
                    # parsed as frames.
                    conn.mode = 2
            else:
                flags, request_id, body = value
                request = protocol.decode_frame(body, flags)
            if request.error is not None:
                # Undecodable: nothing to queue or block on, so it is
                # answered in place.
                self._respond(conn, protocol.run(request)[0], wire, request_id)
                continue
            self._admit(conn, _Req(request, wire, request_id, now))
        if conn.v1_busy and len(splitter) > splitter.max_line:
            # What the peer sends behind its v1 request waits in its
            # socket, as on the threaded server; _finish reads on.
            conn.transport.pause_reading()
        if self._ready and not self._pass_pending:
            self._pass()

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
        # A v2 request is admitted only once no v1 one is in flight.
        conn.v1_busy = req.wire == 1
        conn.pending.append(req)
        self._queued += 1
        self._g_queue_depth.set(self._queued)
        if not conn.in_ready:
            conn.in_ready = True
            self._ready.append(conn)

    def _pass(self) -> None:
        """Round-robin: one request of every ready connection.

        Runs straight from ``data_received`` when no pass is pending.
        While connections stay ready the next pass is one loop iteration
        away, so requests run inline cannot starve accepts, reads and
        timers. At the executor hand-off cap the pass stops, and
        :meth:`_worker_returned` resumes it.
        """
        self._pass_pending = False
        ready = self._ready
        for _ in range(len(ready)):
            # In _ready <=> in_ready <=> pending is non-empty.
            conn = ready[0]
            if not conn.closed and self._in_executor >= self._executor_handoffs:
                # Stopping before the pop keeps the round-robin order honest.
                self._pass_pending = self._stalled = True
                return
            ready.popleft()
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
        if ready:
            self._pass_pending = True
            self._loop.call_soon(self._pass)

    def _worker_returned(self, _worker: asyncio.Future) -> None:
        self._in_executor -= 1
        if self._stalled:
            self._stalled = False
            self._pass()

    def _run_on_loop(self, conn: _Conn, req: _Req) -> None:
        """A short read, run where it stands: no worker is inside the
        executor, so no lock it takes can be held by another thread."""
        start = time.perf_counter()
        try:
            envelope = self.protocol.run(req.request, conn.session)[0]
            self._respond(conn, envelope, req.wire, req.request_id)
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
            self._respond(conn, envelope, req.wire, req.request_id)
        finally:
            self._finish(conn)

    def _finish(self, conn: _Conn) -> None:
        conn.inflight -= 1
        self._inflight_total -= 1
        self._g_inflight.set(self._inflight_total)
        if conn.v1_busy:
            # Answered: read the connection's next request.
            conn.v1_busy = False
            if not conn.paused:
                conn.transport.resume_reading()
            self._loop.call_soon(self._received, conn, b"")

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    @staticmethod
    def _respond(
        conn: _Conn, envelope: Dict[str, Any], wire: int, request_id: int
    ) -> None:
        """Encode in the request's framing and write to the transport."""
        if conn.closed:
            return  # the peer is gone: nowhere to go
        if wire == 1:
            data = encode_json(envelope).encode("utf-8") + b"\n"
        else:
            data = encode_frame(request_id, envelope, response=True)
        conn.transport.write(data)

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
