"""The threaded transport: JSON lines over TCP, a thread per connection.

This module is IO only -- the listening socket, blocking ``readline``
with its idle timeout and size cap, the handler threads. What a line
means is decided by the protocol core (:mod:`repro.service.protocol`),
which the asyncio transport (:mod:`repro.aio.server`) calls too. It is
the transport of every shard worker; ``python -m repro serve`` runs the
asyncio one.

Protocol: newline-delimited JSON objects, one request per line, one
response per line, over a plain TCP connection. Each connection gets its
own :class:`~repro.service.engine.QuerySession`, so the stats endpoint
attributes disk accesses and comparisons per client.

Requests (``op`` selects the operation; the full op table, argument
shapes, and error codes are in ``docs/architecture.md``)::

    {"op": "ping"}
    {"op": "point", "x": 120, "y": 460}
    {"op": "window", "x1": 0, "y1": 0, "x2": 200, "y2": 200,
     "mode": "intersects"}
    {"op": "nearest", "x": 120, "y": 460, "k": 3}
    {"op": "batch", "requests": [...], "order": "morton"}
    {"op": "insert", "x1": 0, "y1": 0, "x2": 10, "y2": 10}
    {"op": "delete", "seg_id": 17}
    {"op": "checkpoint"}
    {"op": "stats"}
    {"op": "check"}
    {"op": "trace", "n": 5}
    {"op": "metrics", "format": "prom"}
    {"op": "explain", "query": {"op": "window", "x1": 0, "y1": 0,
                                "x2": 200, "y2": 200}}
    {"op": "health"}

A request may pin the protocol version with ``"v": 1``; the server
echoes ``"v"`` back on that reply (a version mismatch is a ``bad_args``
error whose message names the version this server speaks).
Responses are ``{"ok": true, "result": ...}`` or::

    {"ok": false, "error": {"code": "...", "message": "...", "type": "..."}}

with ``code`` one of :data:`repro.errors.ERROR_CODES` (``unknown_op``,
``bad_args``, ``unknown_seg``, ``not_durable``, ``internal``) and
``type`` the Python exception class, for debugging. Malformed lines,
missing or mis-typed arguments, and unknown segment ids all produce an
error *response* -- never a dropped connection -- so one bad request in
a client's stream cannot kill the requests behind it. ``checkpoint``
requires the engine to be durable (``serve --wal``); on a non-durable
server it is a ``not_durable`` error like any other.

Two wire-level guards apply to every connection: an idle timeout
(:data:`DEFAULT_IDLE_TIMEOUT`) closes a connection that has gone quiet,
and a request-size cap (:data:`MAX_LINE_BYTES`) turns an oversized line
into a ``frame_too_large`` error with the payload drained, not buffered.
The asyncio server (:mod:`repro.aio`) applies the same two guards and
additionally speaks the length-prefixed wire protocol v2.
"""

from __future__ import annotations

import itertools
import json
import socket
import socketserver
import threading
from typing import Any, Dict, Optional, Tuple

from repro.sanitize import make_lock
from repro.service.engine import QueryEngine
from repro.service.protocol import Envelope, Protocol, encode_json

#: Close a connection that has sent nothing for this long (seconds).
#: A stalled client used to pin its handler thread forever; both the
#: threaded and the async server now reclaim it.
DEFAULT_IDLE_TIMEOUT = 300.0

#: Largest accepted v1 request line (bytes, newline excluded). Anything
#: longer is drained and answered with a ``frame_too_large`` error
#: instead of being buffered whole -- one client cannot exhaust memory.
MAX_LINE_BYTES = 1 << 20


def serve_json_lines(
    handler: socketserver.StreamRequestHandler, protocol: Protocol, session: Any
) -> None:
    """The blocking v1 request loop: one line in, one line out.

    Reads newline-delimited requests with an idle timeout
    (:data:`DEFAULT_IDLE_TIMEOUT`, read as the connection opens: a
    stalled client no longer pins its thread forever) and a line-size
    cap: an oversized line is drained in bounded chunks and answered
    with a structured ``frame_too_large`` error, never buffered whole.
    """
    write, flush = handler.wfile.write, handler.wfile.flush
    readline = handler.rfile.readline
    max_line_bytes = MAX_LINE_BYTES
    handler.connection.settimeout(DEFAULT_IDLE_TIMEOUT)
    while True:
        try:
            raw = readline(max_line_bytes + 1)
        except (TimeoutError, socket.timeout, OSError):
            return  # idle (or dead) connection: reclaim the thread
        if not raw:
            return  # EOF: client closed cleanly
        if len(raw) > max_line_bytes and not raw.endswith(b"\n"):
            # Oversized: discard the rest of the line in bounded chunks,
            # answer with a structured error, keep serving the stream.
            if not _drain_line(readline, max_line_bytes):
                return
            response = protocol.oversized(max_line_bytes)
        elif not raw.endswith(b"\n"):
            return  # EOF mid-line: nothing trustworthy to answer
        else:
            response = protocol.respond_line(raw, session)
            if response is None:
                continue  # blank line: no reply is owed
        write(encode_json(response).encode("utf-8") + b"\n")
        flush()


def _drain_line(readline, chunk: int) -> bool:
    """Discard bounded chunks until the oversized line's newline.

    Returns False on EOF or timeout (the connection is done)."""
    while True:
        try:
            raw = readline(chunk)
        except (TimeoutError, socket.timeout, OSError):
            return False
        if not raw:
            return False
        if raw.endswith(b"\n"):
            return True


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "MapServer" = self.server  # type: ignore[assignment]
        protocol = server.protocol
        session = protocol.session(f"conn-{next(server.connection_ids)}")
        try:
            serve_json_lines(self, protocol, session)
        finally:
            protocol.end_session(session)


class _LiveConnections:
    """The accepted sockets a threaded server has not yet shut down."""

    def __init__(self) -> None:
        self._socks: set = set()
        self._lock = make_lock("service.server.conns")

    def add(self, sock: socket.socket) -> None:
        with self._lock:
            self._socks.add(sock)

    def discard(self, sock: socket.socket) -> None:
        with self._lock:
            self._socks.discard(sock)

    def sever(self) -> None:
        """Shut every one down, so its peer reads EOF at once."""
        with self._lock:
            socks, self._socks = self._socks, set()
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                continue  # already torn down by the handler thread
            sock.close()


class MapServer(socketserver.ThreadingTCPServer):
    """A threaded map server over one :class:`QueryEngine`: v1 lines, a
    thread per connection.

    It owns the listening socket, the handler threads, the idle timeout
    and the line cap; what a line *means* is the protocol core's
    business. Worker threads (one per connection) share the engine's
    buffer pool under its latch; the cache and batch executor are
    shared too.

    It tracks its accepted connections, and ``server_close()`` severs
    every one still open: a stopped server looks to its peers exactly
    like a killed process, and pooled connections (a shard router's)
    die mid-stream instead of being kept alive by lingering handler
    threads.
    """

    allow_reuse_address = True
    daemon_threads = True
    # socketserver's backlog of 5 drops SYNs when one client opens 8
    # connections at once (the load generator does): each drop is a 1 s
    # retransmit that no request latency shows.
    request_queue_size = 128

    def __init__(
        self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._conns = _LiveConnections()
        super().__init__((host, port), _Handler)
        self.engine = engine
        self.protocol = Protocol(engine)
        self.connection_ids = itertools.count(1)
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def get_request(self):
        sock, addr = super().get_request()
        self._conns.add(sock)
        return sock, addr

    def shutdown_request(self, request) -> None:
        self._conns.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        self._conns.sever()

    def respond(self, line: Any, session) -> Optional[Envelope]:
        """One wire request -> one envelope; never raises."""
        return self.protocol.respond_line(line, session)

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns the (started) thread.

        The thread is remembered so :meth:`stop` can join it -- daemon
        status keeps a crashed test from hanging the process, but an
        orderly shutdown must not race the accept loop.
        """
        thread = threading.Thread(
            target=self.serve_forever, name="map-server", daemon=True
        )
        self._serve_thread = thread
        thread.start()
        return thread

    def stop(self) -> None:
        """Deterministic shutdown: stop serving, close the socket, and
        join the background accept thread. After stop() returns, no
        server-owned thread is live (handler threads are daemons tied to
        their connections)."""
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None


def send_request(
    address: Tuple[str, int],
    request: Dict[str, Any],
    timeout: Optional[float] = 10.0,
) -> Dict[str, Any]:
    """One-shot client: connect, send one request, return the response."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        with sock.makefile("rb") as fh:
            line = fh.readline()
    if not line:
        raise ConnectionError("server closed the connection without replying")
    return json.loads(line)
