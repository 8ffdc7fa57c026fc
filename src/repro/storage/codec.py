"""Byte-level page codecs.

The hot path keeps page payloads as Python objects for speed, with
capacities enforced by the byte accounting in :mod:`repro.storage.layout`.
This module makes that accounting *real*: every payload type serializes
to the exact on-disk format the layout constants describe, and the
encoders refuse to emit a page larger than the page size. The round-trip
tests pin the two views of the format together, and
:func:`dump_database` / :func:`load_database` persist a whole simulated
disk to a single file.

Formats (little-endian):

* R-tree / R+-tree node: header ``<BxxxI`` (leaf flag, entry count) then
  20-byte entries ``<4fi`` (4 float32 rectangle coordinates + pointer);
  24-byte header + 50 entries = 1024 bytes, as in the paper.
* B-tree leaf: header ``<BxxxIq`` (leaf flag, count, next page or -1)
  then 8-byte entries ``<Ii`` (locational code low word + pointer).
  Codes wider than 32 bits use the extended entry ``<QI`` transparently.
* Segment table page: count then 16-byte ``<4f`` endpoint records.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from repro.btree.node import InternalNode, LeafNode
from repro.core.rtree.node import RTreeNode
from repro.geometry import Rect, Segment
from repro.storage.disk import DiskManager

_RTREE_HEADER = struct.Struct("<BxxxI")  # is_leaf, count (padded to 8)
_RTREE_ENTRY = struct.Struct("<4fi")  # 20 bytes, as the paper charges
_BTREE_HEADER = struct.Struct("<BxxxIq")  # is_leaf, count, next_page
_BTREE_ENTRY = struct.Struct("<Ii")  # 8 bytes: code (depth-14 Morton fits
# in 28 bits) + pointer -- the paper's (L, O) 2-tuple
_SEG_HEADER = struct.Struct("<I")
_SEG_ENTRY = struct.Struct("<4f")  # 16 bytes per segment


# Historically defined here; now part of the consolidated hierarchy in
# repro.errors (still a ValueError, so existing handlers keep working).
from repro.errors import CodecError  # noqa: E402  (re-export)


# ----------------------------------------------------------------------
# R-tree family nodes
# ----------------------------------------------------------------------
def encode_rtree_node(node, page_size: int) -> bytes:
    """Serialize an :class:`RTreeNode` (an R, R* or R+ page alike)."""
    out = bytearray(_RTREE_HEADER.pack(node.is_leaf, len(node.entries)))
    for rect, ref in node.entries:
        out += _RTREE_ENTRY.pack(rect[0], rect[1], rect[2], rect[3], ref)
    if len(out) > page_size:
        raise CodecError(
            f"node with {len(node.entries)} entries needs {len(out)} bytes; "
            f"page is {page_size}"
        )
    return bytes(out)


def decode_rtree_node(data: bytes) -> RTreeNode:
    is_leaf, count = _RTREE_HEADER.unpack_from(data, 0)
    entries: List[Tuple[Rect, int]] = []
    offset = _RTREE_HEADER.size
    for _ in range(count):
        x1, y1, x2, y2, ref = _RTREE_ENTRY.unpack_from(data, offset)
        entries.append((Rect(x1, y1, x2, y2), ref))
        offset += _RTREE_ENTRY.size
    return RTreeNode(bool(is_leaf), entries)


# ----------------------------------------------------------------------
# B-tree nodes (PMR linear quadtree)
# ----------------------------------------------------------------------
def encode_btree_node(node, page_size: int) -> bytes:
    try:
        if node.is_leaf:
            next_page = node.next_page if node.next_page is not None else -1
            out = bytearray(_BTREE_HEADER.pack(1, len(node.entries), next_page))
            for key, value in node.entries:
                if not isinstance(key, int) or not isinstance(value, int):
                    raise CodecError(
                        f"only (int code, int pointer) leaf entries serialize; "
                        f"got {(key, value)!r}"
                    )
                out += _BTREE_ENTRY.pack(key, value)
        else:
            out = bytearray(_BTREE_HEADER.pack(0, len(node.keys), -1))
            for key in node.keys:
                if not (isinstance(key, tuple) and len(key) == 2):
                    raise CodecError(f"separator {key!r} is not a (code, ptr) pair")
                out += _BTREE_ENTRY.pack(key[0], key[1])
            for child in node.children:
                out += struct.pack("<i", child)
    except struct.error as exc:
        raise CodecError(f"B-tree entry out of 32-bit range: {exc}") from None
    if len(out) > page_size:
        raise CodecError(f"B-tree node needs {len(out)} bytes; page is {page_size}")
    return bytes(out)


def decode_btree_node(data: bytes):
    is_leaf, count, next_page = _BTREE_HEADER.unpack_from(data, 0)
    offset = _BTREE_HEADER.size
    if is_leaf:
        entries = []
        for _ in range(count):
            key, value = _BTREE_ENTRY.unpack_from(data, offset)
            entries.append((key, value))
            offset += _BTREE_ENTRY.size
        return LeafNode(entries, None if next_page < 0 else next_page)
    keys = []
    for _ in range(count):
        code, ptr = _BTREE_ENTRY.unpack_from(data, offset)
        keys.append((code, ptr))
        offset += _BTREE_ENTRY.size
    children = []
    for _ in range(count + 1):
        (child,) = struct.unpack_from("<i", data, offset)
        children.append(child)
        offset += 4
    return InternalNode(keys, children)


# ----------------------------------------------------------------------
# Segment table pages
# ----------------------------------------------------------------------
def stored_segment(segment: Segment) -> Segment:
    """``segment`` as a segment-table page (and the WAL) holds it: its
    endpoints rounded to float32."""
    return Segment(*_SEG_ENTRY.unpack(_SEG_ENTRY.pack(*segment)))


def encode_segment_page(segments: List[Segment], page_size: int) -> bytes:
    out = bytearray(_SEG_HEADER.pack(len(segments)))
    for s in segments:
        out += _SEG_ENTRY.pack(s.x1, s.y1, s.x2, s.y2)
    if len(out) > page_size + _SEG_HEADER.size:
        raise CodecError(
            f"segment page needs {len(out)} bytes; page is {page_size}"
        )
    return bytes(out)


def decode_segment_page(data: bytes) -> List[Segment]:
    (count,) = _SEG_HEADER.unpack_from(data, 0)
    offset = _SEG_HEADER.size
    out = []
    for _ in range(count):
        x1, y1, x2, y2 = _SEG_ENTRY.unpack_from(data, offset)
        out.append(Segment(x1, y1, x2, y2))
        offset += _SEG_ENTRY.size
    return out


# ----------------------------------------------------------------------
# Whole-database snapshots
# ----------------------------------------------------------------------
#: Page kind -> (encoder, decoder). ``"rplus"`` is the R+-tree's name
#: for the layout it shares with ``"rtree"``: the owning index picks the
#: kind a dump records (:meth:`SpatialIndex.page_inventories`).
_PAYLOAD_CODECS = {
    "rtree": (encode_rtree_node, decode_rtree_node),
    "rplus": (encode_rtree_node, decode_rtree_node),
    "btree": (encode_btree_node, decode_btree_node),
    "segments": (encode_segment_page, decode_segment_page),
}

#: The one snapshot layout this code writes and reads (FS01 otherwise):
#: compact JSON header, page table rows ``[id, index into "kinds",
#: length]``, one CRC-32 over the page area.
FORMAT = 3

#: The kind of a page no inventory names (a bare ``dump_database``).
_KIND_OF_PAYLOAD = {
    RTreeNode: "rtree",
    LeafNode: "btree",
    InternalNode: "btree",
    list: "segments",
}


def dump_database(
    disk: DiskManager,
    fh: BinaryIO,
    manifest: Optional[Dict[str, Any]] = None,
    pool=None,
    inventories: Optional[Dict[str, Any]] = None,
) -> int:
    """Write every allocated page of a simulated disk to ``fh``.

    Returns the number of pages written. A page is serialized with the
    codec of the kind its owner declares in ``inventories`` (kind ->
    page ids, an index's ``page_inventories()``), or, when nothing
    names it, of its payload type; the JSON header records enough to
    reallocate them on load (including the free list and the physical
    read/write history, so a reloaded disk is indistinguishable from the
    original).

    ``manifest`` is an arbitrary JSON-serializable object stored in the
    header; the service layer uses it to record which index lives in the
    snapshot (see :mod:`repro.service.snapshot`).

    ``pool`` is the buffer pool in front of ``disk``, if any. Passing it
    arms the staleness guard: dumping while the pool holds dirty
    (unflushed) pages raises :class:`CodecError`, because the disk's
    payloads would not reflect the latest mutations. Flush first.
    """
    if pool is not None and pool.has_dirty():
        dirty = sorted(pool.dirty_pages())
        raise CodecError(
            f"buffer pool holds {len(dirty)} dirty page(s) {dirty[:8]}...; "
            f"flush before dumping or the snapshot would persist stale pages"
        )
    declared = {
        page_id: kind
        for kind, page_ids in (inventories or {}).items()
        for page_id in page_ids
    }
    kinds = list(_PAYLOAD_CODECS)
    rows: List[List[int]] = []
    area = bytearray()
    for page_id, payload in sorted(disk._pages.items()):
        kind = declared.get(page_id) or _KIND_OF_PAYLOAD.get(type(payload))
        if kind is None:
            raise CodecError(f"no codec for payload of type {type(payload).__name__}")
        encoder, _ = _PAYLOAD_CODECS[kind]
        blob = encoder(payload, disk.page_size)
        rows.append([page_id, kinds.index(kind), len(blob)])
        area += blob

    header = {
        "format": FORMAT,
        "page_size": disk.page_size,
        "next_id": disk._next_id,
        "free_ids": sorted(disk._free_ids),
        "physical_reads": disk.physical_reads,
        "physical_writes": disk.physical_writes,
        "manifest": manifest,
        "kinds": kinds,
        "pages": rows,
        "pages_crc": zlib.crc32(area),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    fh.write(struct.pack("<I", len(header_bytes)))
    fh.write(header_bytes)
    fh.write(area)
    return len(rows)


def read_header(fh: BinaryIO) -> Dict[str, Any]:
    """Read only the JSON header of a dumped database (no page decoding).

    Raises :class:`CodecError` when ``fh`` does not start with a header
    written by :func:`dump_database` (truncated, corrupt, or not a dump
    at all).
    """
    prefix = fh.read(4)
    if len(prefix) != 4:
        raise CodecError("not a database dump: file shorter than its header")
    (header_len,) = struct.unpack("<I", prefix)
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"not a database dump: malformed header ({exc})") from exc
    if not isinstance(header, dict) or "pages" not in header:
        raise CodecError("not a database dump: header lacks a page table")
    return header


def load_pages(fh: BinaryIO, header: Dict[str, Any]) -> DiskManager:
    """Rebuild the dumped disk under ``header`` from ``fh``, which stands
    at the page area (where :func:`read_header` leaves it).

    A page area shorter or more damaged than the header promises raises
    :class:`CodecError`: a truncated dump must fail loudly, never load
    as a partially-populated disk.
    """
    disk = DiskManager(page_size=header["page_size"])
    crc = 0
    for page_id, kind_index, length in header["pages"]:
        blob = fh.read(length)
        if len(blob) != length:
            raise CodecError(
                f"dump is truncated: page {page_id} promises "
                f"{length} bytes, only {len(blob)} remain"
            )
        crc = zlib.crc32(blob, crc)
        try:
            _, decoder = _PAYLOAD_CODECS[header["kinds"][kind_index]]
            disk._pages[page_id] = decoder(blob)
        except (struct.error, ValueError, KeyError, IndexError) as exc:
            raise CodecError(
                f"page {page_id} (kind {kind_index}) cannot be decoded: {exc}"
            ) from exc
    if crc != header["pages_crc"]:
        raise CodecError("page area is corrupt: its CRC-32 is not the header's")
    disk._next_id = header["next_id"]
    disk._free_ids = list(header.get("free_ids", []))
    disk.physical_reads = header.get("physical_reads", 0)
    disk.physical_writes = header.get("physical_writes", 0)
    return disk


def load_database(fh: BinaryIO) -> DiskManager:
    """Rebuild a simulated disk written by :func:`dump_database`."""
    return load_pages(fh, read_header(fh))


def table_rows_crc(
    fh: BinaryIO,
    header: Dict[str, Any],
    page_area: int,
    page_ids: List[int],
    appended: List[Segment],
) -> int:
    """CRC-32 of a dumped segment table's rows -- the pages ``page_ids``
    in that order, undecoded, as the page table delimits them past
    ``page_area``, count words skipped -- and then of ``appended``."""
    extents: Dict[int, Tuple[int, int]] = {}
    offset = page_area
    for page_id, _, length in header["pages"]:
        extents[page_id] = (offset, length)
        offset += length
    crc = 0
    for page_id in page_ids:
        offset, length = extents[page_id]
        fh.seek(offset + _SEG_HEADER.size)
        crc = zlib.crc32(fh.read(length - _SEG_HEADER.size), crc)
    for s in appended:
        crc = zlib.crc32(_SEG_ENTRY.pack(s.x1, s.y1, s.x2, s.y2), crc)
    return crc
