"""Wire protocol v2: length-prefixed binary frames with request ids.

The v1 protocol is newline-delimited JSON with strictly ordered
responses -- fine for one request at a time, hopeless for pipelining
(the client cannot tell which response answers which request, so the
server must serialize). Protocol v2 keeps the JSON *payloads* (same op
table, same envelopes, same error codes) and changes only the framing::

    +-----------+----------------+--------------------+---------------+
    | flags: u8 | length: u32 LE | request_id: u64 LE | payload bytes |
    +-----------+----------------+--------------------+---------------+

* ``length`` counts the payload bytes only (the header is fixed at 13).
* ``flags``: bit 0 set on a *response* frame (so a frame's direction is
  self-describing in captures). All other bits must be 0, so a *request*
  frame sets none: the server answers one that does with ``bad_args``
  on its ``request_id`` and keeps the connection. (The distributed-trace
  context travels inside the payload, as the same ``"tc"`` field v1
  carries.)
* ``request_id`` is chosen by the client, echoed verbatim on the
  response frame. Ids need not be sequential or unique -- the server
  never interprets them -- but a pipelining client will want them
  unique per connection to correlate out-of-order responses.
* ``payload`` is one UTF-8 JSON object: a v1 request dict on the way
  in, a v1 response envelope (``{"ok": ...}``) on the way out. No
  trailing newline.

Negotiation rides on the existing v1 ``"v"`` pin: a client opens the
connection in v1, sends any request with ``"v": 2`` (conventionally
``{"op": "ping", "v": 2}``), and the async server answers that request
in v1 framing with ``"v": 2`` echoed -- every byte after that response
is v2 frames in both directions. A server that does not speak v2 (the
threaded oracle) rejects the pin with a ``bad_args`` error naming the
version it speaks, and the connection simply stays v1: the downgrade
path is the error path, no extra round trip.

Frames larger than :data:`MAX_FRAME_BYTES` are not read into memory:
the header names the offender's request id, so the server drains the
payload in bounded chunks and answers *that id* with a structured
``frame_too_large`` error. A torn frame (EOF mid-header or mid-payload)
has no id to answer and closes the connection, mirroring how v1 treats
EOF mid-line.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Tuple

from repro.service.protocol import encode_json

#: Protocol version clients pin (``{"v": 2}``) to negotiate framing.
PROTOCOL_VERSION_2 = 2

#: ``<flags u8> <length u32> <request_id u64>``, little-endian, packed.
FRAME_HEADER = struct.Struct("<BIQ")

HEADER_BYTES = FRAME_HEADER.size

#: Bit 0 of ``flags``: this frame is a response.
FLAG_RESPONSE = 0x01

#: Largest accepted v2 payload (bytes). Matches the spirit of the v1
#: line cap: one request may carry a big batch, but not the heap.
MAX_FRAME_BYTES = 1 << 20


def encode_frame(
    request_id: int, payload: Dict[str, Any], response: bool = False
) -> bytes:
    """One v2 frame: header + compact JSON payload."""
    body = encode_json(payload).encode("utf-8")
    flags = FLAG_RESPONSE if response else 0
    return FRAME_HEADER.pack(flags, len(body), request_id) + body


def decode_header(header: bytes) -> Tuple[int, int, int]:
    """``(flags, length, request_id)`` from 13 header bytes."""
    return FRAME_HEADER.unpack(header)


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Parse a frame payload; raises ``ValueError`` on malformed JSON."""
    payload = json.loads(body)
    if not isinstance(payload, dict):
        raise ValueError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload
