"""The async client of wire protocol v2.

:class:`AsyncMapClient` is the pipelining v2 client: it negotiates the
upgrade on connect, then any number of coroutines can ``await
client.request(...)`` concurrently on one connection -- each call gets
a fresh request id, the reader task resolves futures as response frames
arrive, in whatever order the server finishes them. The one-shot v1
client is :func:`repro.service.server.send_request`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Dict, Optional, Tuple

from repro.aio.frames import (
    HEADER_BYTES,
    PROTOCOL_VERSION_2,
    decode_header,
    decode_payload,
    encode_frame,
)

_COMPACT = (",", ":")


class AsyncMapClient:
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
    server drops the connection, every outstanding and future request
    fails with :class:`ConnectionError`.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task: Optional[asyncio.Task] = None

    @classmethod
    async def connect(
        cls, address: Tuple[str, int], timeout: float = 10.0
    ) -> "AsyncMapClient":
        """Open a connection and negotiate v2; ``ConnectionError`` if the
        server refuses the upgrade (the threaded v1-only server answers
        the pin with ``bad_args``)."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(*address), timeout
        )
        hello = {"op": "ping", "v": PROTOCOL_VERSION_2}
        writer.write(json.dumps(hello, separators=_COMPACT).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        ack = json.loads(line) if line else {}
        if not ack.get("ok") or ack.get("v") != PROTOCOL_VERSION_2:
            writer.close()
            raise ConnectionError(f"server at {address} refused the v2 upgrade")
        client = cls(reader, writer)
        client._reader_task = asyncio.get_running_loop().create_task(
            client._read_loop()
        )
        return client

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request frame; resolves when its response arrives.

        A trace context to propagate goes in the payload as its ``"tc"``
        field (:meth:`repro.obs.dtrace.TraceContext.to_wire`), exactly as
        on a v1 line.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        frame = encode_frame(request_id, payload)
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()
        return await future

    async def _read_loop(self) -> None:
        buf = bytearray()
        error: Exception = ConnectionError("connection closed by server")
        try:
            while True:
                while len(buf) < HEADER_BYTES:
                    chunk = await self._reader.read(65536)
                    if not chunk:
                        return
                    buf.extend(chunk)
                _flags, length, request_id = decode_header(
                    bytes(buf[:HEADER_BYTES])
                )
                total = HEADER_BYTES + length
                while len(buf) < total:
                    chunk = await self._reader.read(65536)
                    if not chunk:
                        return
                    buf.extend(chunk)
                payload = decode_payload(bytes(buf[HEADER_BYTES:total]))
                del buf[:total]
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except (ConnectionError, OSError) as exc:
            error = exc
        finally:
            self._closed = True  # repro-lint: disable=CC03 -- event-loop confined: only the loop thread runs this coroutine; _write_lock serializes the socket, not this flag
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def close(self) -> None:
        self._closed = True  # repro-lint: disable=CC03 -- event-loop confined: close() runs on the same loop as the reader task
        if self._reader_task is not None:
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # socket already dead; nothing held open
