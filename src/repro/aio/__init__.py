"""Asyncio serving layer: pipelined wire protocol v2 over one event loop.

The threaded :class:`~repro.service.server.MapServer` spends a thread
per connection and serializes each connection's requests; this package
serves an engine or a shard-router core from a single event loop --
short reads on the loop thread, long and blocking requests on a bounded
executor -- and adds the negotiated length-prefixed v2 framing for
pipelining, admission control with structured ``server_overloaded``
errors, per-client fair scheduling, and backpressure-aware group commit
across connections. ``serve`` and the shard router (:mod:`repro.shard`)
serve from it. Both servers call the same protocol core
(:mod:`repro.service.protocol`) and read a v1 connection one request at
a time; the threaded one remains every shard worker and the v1 oracle
the protocol-equivalence suite compares against.
"""

from repro.aio.client import AsyncMapClient
from repro.aio.commit import GroupCommitter
from repro.aio.frames import (
    FLAG_RESPONSE,
    FRAME_HEADER,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION_2,
    decode_header,
    decode_payload,
    encode_frame,
)
from repro.aio.server import AsyncMapServer

__all__ = [
    "AsyncMapClient",
    "AsyncMapServer",
    "FLAG_RESPONSE",
    "FRAME_HEADER",
    "GroupCommitter",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION_2",
    "decode_header",
    "decode_payload",
    "encode_frame",
]
