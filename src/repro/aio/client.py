"""The async client of wire protocol v2.

:class:`AsyncMapClient` is the pipelining v2 client: it negotiates the
upgrade on connect, then any number of coroutines can ``await
client.request(...)`` concurrently on one connection -- each call gets
a fresh request id, writes its frame, and awaits one future. The client
is the connection's :class:`asyncio.Protocol`: ``data_received``
resolves the futures as response frames arrive, in whatever order the
server finishes them. No reader task runs and no lock is taken; a
``request`` waits before writing only while the transport is paused,
so a server that stops reading holds at most the transport's
high-water mark plus one frame of ours. The one-shot v1 client is
:func:`repro.service.server.send_request`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.aio.frames import (
    FRAME_HEADER,
    HEADER_BYTES,
    PROTOCOL_VERSION_2,
    decode_payload,
    encode_frame,
)
from repro.service.protocol import encode_json


class AsyncMapClient(asyncio.Protocol):
    """A pipelined v2 connection: many outstanding requests, one socket.

    Usage::

        client = await AsyncMapClient.connect(server.address)
        results = await asyncio.gather(
            client.request({"op": "point", "x": 1.0, "y": 2.0}),
            client.request({"op": "stats"}),
        )
        await client.close()

    ``request`` returns the full response envelope (``{"ok": ...}``);
    callers decide whether an ``ok: false`` is an exception. If the
    server drops the connection, or sends a frame that is not a JSON
    object, every outstanding and future request fails with a
    :class:`ConnectionError` that says which.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._buf = bytearray()
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        #: The upgrade ack (a v1 line), until it has arrived.
        self._ack: Optional[asyncio.Future] = self._loop.create_future()
        self._paused = False
        self._writable: List[asyncio.Future] = []
        self._lost = self._loop.create_future()
        #: Why requests fail: ``None`` while the connection serves.
        self._error: Optional[str] = None

    @classmethod
    async def connect(
        cls, address: Tuple[str, int], timeout: float = 10.0
    ) -> "AsyncMapClient":
        """Open a connection and negotiate v2; ``ConnectionError`` if the
        server refuses the upgrade (the threaded v1-only server answers
        the pin with ``bad_args``)."""
        loop = asyncio.get_running_loop()
        transport, client = await asyncio.wait_for(
            loop.create_connection(cls, *address), timeout
        )
        hello = {"op": "ping", "v": PROTOCOL_VERSION_2}
        transport.write(encode_json(hello).encode() + b"\n")
        try:
            ack = await asyncio.wait_for(client._ack, timeout)
        except BaseException:
            transport.abort()
            raise
        if not ack.get("ok") or ack.get("v") != PROTOCOL_VERSION_2:
            transport.abort()
            raise ConnectionError(f"server at {address} refused the v2 upgrade")
        return client

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request frame; resolves when its response arrives.

        A trace context to propagate goes in the payload as its ``"tc"``
        field (:meth:`repro.obs.dtrace.TraceContext.to_wire`), exactly as
        on a v1 line.
        """
        while self._paused and self._error is None:
            waiter = self._loop.create_future()
            self._writable.append(waiter)
            await waiter
        if self._error is not None:
            raise ConnectionError(self._error)
        request_id = next(self._ids)
        future = self._loop.create_future()
        self._pending[request_id] = future
        self._transport.write(encode_frame(request_id, payload))
        return await future

    async def close(self) -> None:
        self._fail("client is closed")
        self._transport.close()
        await self._lost

    # ------------------------------------------------------------------
    # asyncio.Protocol
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        if self._ack is not None:
            i = buf.find(b"\n")
            if i < 0:
                return
            try:
                ack = json.loads(buf[:i])
            except ValueError:
                ack = {}
            del buf[: i + 1]
            if not self._ack.done():
                self._ack.set_result(ack if isinstance(ack, dict) else {})
            self._ack = None
        pending = self._pending
        while len(buf) >= HEADER_BYTES:
            _flags, length, request_id = FRAME_HEADER.unpack_from(buf)
            total = HEADER_BYTES + length
            if len(buf) < total:
                return
            try:
                payload = decode_payload(buf[HEADER_BYTES:total])
            except ValueError as exc:
                # The stream cannot be trusted past a bad frame.
                self._fail(
                    f"malformed response frame for request {request_id}: {exc}"
                )
                self._transport.abort()
                return
            del buf[:total]
            future = pending.pop(request_id, None)
            if future is not None and not future.done():
                future.set_result(payload)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(
            "connection closed by server" if exc is None else f"connection lost: {exc}"
        )
        if self._ack is not None and not self._ack.done():
            self._ack.set_exception(ConnectionError(self._error))
        self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_writers()

    # ------------------------------------------------------------------
    def _fail(self, reason: str) -> None:
        """Fail every outstanding request, and every later one, with
        ``reason`` -- the first reason given."""
        if self._error is None:
            self._error = reason
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError(self._error))
        self._pending.clear()
        self._wake_writers()

    def _wake_writers(self) -> None:
        waiters, self._writable = self._writable, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)
