"""Wire protocol v2 framing: the codec itself, no sockets."""

import json
import struct

import pytest

from repro.aio import (
    FLAG_RESPONSE,
    FRAME_HEADER,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION_2,
    decode_header,
    decode_payload,
    encode_frame,
)


class TestHeader:
    def test_layout_is_thirteen_bytes_little_endian(self):
        assert HEADER_BYTES == 13
        assert FRAME_HEADER.size == 13
        # flags u8 | length u32 | request_id u64, no padding
        assert FRAME_HEADER.format == "<BIQ"

    def test_version_constant(self):
        assert PROTOCOL_VERSION_2 == 2

    def test_decode_header_fields(self):
        header = FRAME_HEADER.pack(FLAG_RESPONSE, 42, 7)
        assert decode_header(header) == (FLAG_RESPONSE, 42, 7)

    def test_request_id_is_full_u64(self):
        big = (1 << 64) - 1
        frame = encode_frame(big, {"op": "ping"})
        _flags, _length, request_id = decode_header(frame[:HEADER_BYTES])
        assert request_id == big

    def test_length_counts_payload_only(self):
        payload = {"op": "ping"}
        frame = encode_frame(5, payload)
        _flags, length, _rid = decode_header(frame[:HEADER_BYTES])
        assert length == len(frame) - HEADER_BYTES
        assert length == len(json.dumps(payload, separators=(",", ":")))


class TestRoundTrip:
    def test_request_frame(self):
        payload = {"op": "point", "x": 1.5, "y": -2.0}
        frame = encode_frame(11, payload)
        flags, length, request_id = decode_header(frame[:HEADER_BYTES])
        assert flags == 0  # request: response bit clear
        assert request_id == 11
        assert decode_payload(frame[HEADER_BYTES : HEADER_BYTES + length]) == payload

    def test_response_frame_sets_flag(self):
        frame = encode_frame(3, {"ok": True, "result": "pong"}, response=True)
        flags, _length, _rid = decode_header(frame[:HEADER_BYTES])
        assert flags & FLAG_RESPONSE

    def test_the_response_bit_is_the_only_flag_there_is(self):
        """No trace trailer, so no bit 1: a request frame's flags byte is
        0 (the server refuses anything else, see test_aio_server) and a
        response's is exactly ``FLAG_RESPONSE``."""
        from repro.aio import frames

        assert FLAG_RESPONSE == 0x01
        for response, want in ((False, 0), (True, FLAG_RESPONSE)):
            frame = encode_frame(1, {"op": "ping"}, response=response)
            assert decode_header(frame[:HEADER_BYTES])[0] == want
        assert [name for name in vars(frames) if name.startswith("FLAG_")] == [
            "FLAG_RESPONSE"
        ]
        with pytest.raises(TypeError):
            encode_frame(1, {"op": "ping"}, trace_trailer=b"x" * 25)

    def test_payload_is_compact_json_no_newline(self):
        frame = encode_frame(1, {"op": "ping"})
        body = frame[HEADER_BYTES:]
        assert body == b'{"op":"ping"}'
        assert not body.endswith(b"\n")

    def test_two_frames_concatenate_cleanly(self):
        a = encode_frame(1, {"op": "ping"})
        b = encode_frame(2, {"op": "stats"})
        stream = a + b
        _f, length, rid = decode_header(stream[:HEADER_BYTES])
        assert rid == 1
        rest = stream[HEADER_BYTES + length :]
        _f, length2, rid2 = decode_header(rest[:HEADER_BYTES])
        assert rid2 == 2
        assert decode_payload(rest[HEADER_BYTES : HEADER_BYTES + length2]) == {
            "op": "stats"
        }


class TestPayloadValidation:
    def test_malformed_json_raises(self):
        with pytest.raises(ValueError):
            decode_payload(b"this is not json")

    def test_non_object_payload_raises(self):
        with pytest.raises(ValueError, match="JSON object"):
            decode_payload(b"[1, 2, 3]")

    def test_truncated_header_raises(self):
        with pytest.raises(struct.error):
            decode_header(b"\x00\x01")

    def test_frame_cap_matches_v1_line_cap(self):
        from repro.service.server import MAX_LINE_BYTES

        assert MAX_FRAME_BYTES == MAX_LINE_BYTES


#: Envelopes of every shape the wire carries: floats, nested lists,
#: non-ASCII text and an error object.
ENVELOPES = [
    {"ok": True, "result": list(range(40)), "v": 2},
    {"ok": True, "result": [[17, 0.1 + 0.2], [3, 1e-300], [9, 12345678.125]]},
    {"ok": True, "result": {"nested": [[1, [2, [3.5, -0.0]]], {"k": None}]}},
    {"ok": True, "result": {"county": "Saint Mary’s été 水"}},
    {"ok": False, "error": {"code": "bad_args", "message": "x must be finite",
                            "partial": [1, 2], "shard": "s0"}},
]


class TestCompactEncoder:
    """One encoder, built once, serves every writer of the wire."""

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_byte_identical_to_compact_dumps(self, envelope):
        from repro.service.protocol import encode_json

        expected = json.dumps(envelope, separators=(",", ":"))
        assert encode_json(envelope) == expected
        frame = encode_frame(5, envelope, response=True)
        assert frame[HEADER_BYTES:] == expected.encode("utf-8")
