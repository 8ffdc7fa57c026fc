"""The append-only, CRC-checked write-ahead log.

One log file (``repro.wal``) per durable store. The file starts with a
16-byte header -- magic + the *base LSN*, i.e. the LSN of the checkpoint
this log's records follow -- and then holds framed records
(:mod:`repro.wal.records`) with LSNs ``base_lsn + 1, base_lsn + 2, ...``.

Durability protocol:

* :meth:`WriteAheadLog.log_insert` / :meth:`~WriteAheadLog.log_delete`
  assign the next LSN and buffer the frame; each counts as one
  ``log_appends``.
* :meth:`WriteAheadLog.sync` is the one durability call: it hands
  everything appended so far to the OS and fsyncs it, so a record is
  durable before any front acknowledges it. Callers that arrive while
  another fsync is in flight wait for it, then cover whatever is still
  pending -- concurrent committers share fsyncs, and one that finds its
  record already covered issues none. ``fsyncs`` counts the actual
  syscalls, none of which runs under the log lock.
* :func:`scan_log` reads a log back tolerating a *torn tail*: a final
  record cut mid-frame, mid-payload, or failing its CRC ends the scan at
  the last good boundary instead of failing recovery.
  :meth:`WriteAheadLog.open` truncates the torn bytes away (repair) so
  the next append extends a clean log.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.geometry import Segment
from repro.sanitize import SANITIZER, make_lock
from repro.wal.records import (
    FRAME,
    MAX_PAYLOAD,
    DeleteRecord,
    InsertRecord,
    WalError,
    WalRecord,
    decode_record,
    frame_record,
)

MAGIC = b"RPWAL1\x00\x00"
HEADER = struct.Struct("<8sQ")  # magic, base_lsn


@dataclass
class LogScan:
    """Everything a reader can learn from one pass over a log file."""

    base_lsn: int
    records: List[WalRecord]
    #: File offset of each intact record's frame (crash-injection anchor).
    offsets: List[int]
    #: File offset just past the last intact record (truncation target).
    valid_bytes: int
    file_size: int
    #: ``None`` for a clean log, else why the scan stopped early.
    tail_error: Optional[str] = None

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else self.base_lsn

    @property
    def torn_bytes(self) -> int:
        return self.file_size - self.valid_bytes


def read_log_header(buf: bytes) -> int:
    """Validate the header bytes, returning the base LSN."""
    if len(buf) < HEADER.size:
        raise WalError(
            f"log header truncated: {len(buf)} bytes, need {HEADER.size}"
        )
    magic, base_lsn = HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise WalError(f"bad log magic {magic!r} (not a repro.wal file?)")
    return base_lsn


def scan_log(path: str) -> LogScan:
    """Scan a log file, stopping (not failing) at a torn or corrupt tail.

    Only a damaged *header* raises: without the magic and base LSN there
    is nothing to recover. Any record-level damage -- a frame cut short,
    a payload CRC mismatch, an undecodable payload -- marks everything
    from that offset on as the torn tail; framing cannot be resynced
    past a bad length field, so the scan cannot continue.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    base_lsn = read_log_header(buf)
    records: List[WalRecord] = []
    offsets: List[int] = []
    offset = HEADER.size
    tail_error: Optional[str] = None
    while offset < len(buf):
        if len(buf) - offset < FRAME.size:
            tail_error = "torn frame header"
            break
        length, crc = FRAME.unpack_from(buf, offset)
        if length > MAX_PAYLOAD:
            tail_error = f"implausible payload length {length} (corrupt frame)"
            break
        if offset + FRAME.size + length > len(buf):
            tail_error = "torn payload"
            break
        payload = buf[offset + FRAME.size : offset + FRAME.size + length]
        if zlib.crc32(payload) != crc:
            tail_error = "payload CRC mismatch"
            break
        try:
            records.append(decode_record(payload))
        except WalError as exc:
            tail_error = str(exc)
            break
        offsets.append(offset)
        offset += FRAME.size + length
    return LogScan(
        base_lsn=base_lsn,
        records=records,
        offsets=offsets,
        valid_bytes=offset,
        file_size=len(buf),
        tail_error=tail_error,
    )


class WriteAheadLog:
    """One append-only log file whose concurrent syncs share fsyncs.

    Thread-safe: appends, flushes, and rotation serialize on an internal
    lock, fsyncs run one at a time outside it (the engine additionally
    orders appends against index applies under its latch, so LSN order
    always matches apply order).
    """

    def __init__(self, path: str, base_lsn: int, last_lsn: int) -> None:
        self.path = os.fspath(path)
        self.base_lsn = base_lsn
        self.last_lsn = last_lsn
        self.log_appends = 0
        self.fsyncs = 0
        self._pending = 0
        #: Orders appends (LSN order = file order) and guards the tallies;
        #: ``_flushing`` marks an fsync running *outside* it.
        self._lock = make_lock("wal.log")
        self._flushed = threading.Condition(self._lock)
        self._flushing = False
        self._fh = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str, base_lsn: int = 0) -> "WriteAheadLog":
        """Create a fresh log whose records will follow ``base_lsn``."""
        path = os.fspath(path)
        with open(path, "xb") as fh:
            fh.write(HEADER.pack(MAGIC, base_lsn))
            fh.flush()
            os.fsync(fh.fileno())
        return cls(path, base_lsn=base_lsn, last_lsn=base_lsn)

    @classmethod
    def open(cls, path: str, scan: LogScan, repair: bool = True) -> "WriteAheadLog":
        """Reopen an existing log for appending.

        ``scan`` is the caller's :func:`scan_log` of ``path``, the one it
        judged (rule FS08 refuses LSN gaps), so a log is read once per
        open. A torn tail is truncated away when ``repair`` is true (the
        default); with ``repair=False`` a torn log raises, for callers
        that must not modify the store.
        """
        path = os.fspath(path)
        if scan.tail_error is not None:
            if not repair:
                raise WalError(f"{path}: torn tail ({scan.tail_error})")
            with open(path, "r+b") as fh:
                fh.truncate(scan.valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, base_lsn=scan.base_lsn, last_lsn=scan.last_lsn)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(self, record: WalRecord) -> int:
        self._fh.write(frame_record(record))
        self.last_lsn = record.lsn
        self.log_appends += 1
        self._pending += 1
        return record.lsn

    def log_insert(self, seg_id: int, segment: Segment) -> int:
        """Append an insert record, returning its assigned LSN."""
        with self._lock:
            return self._append(InsertRecord(self.last_lsn + 1, seg_id, segment))

    def log_delete(self, seg_id: int) -> int:
        """Append a delete record, returning its assigned LSN."""
        with self._lock:
            return self._append(DeleteRecord(self.last_lsn + 1, seg_id))

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def sync(self) -> bool:
        """Flush, then fsync whatever is pending; returns whether one ran.

        The log lock is held to hand the frames to the OS and again to
        settle the tallies, never across the fsync: an append (made under
        the engine latch) does not queue behind the disk. Fsyncs run one
        at a time; a second caller waits, then covers what is left --
        nothing, when the first one's fsync already covered its record.
        """
        with self._lock:
            while self._flushing:  # releases the log lock while waiting
                self._flushed.wait()
            covered = self._pending
            if not covered:
                return False
            self._fh.flush()
            self._flushing = True
            fd = self._fh.fileno()
        synced = 0
        try:
            if SANITIZER.enabled:  # reports any lock the *caller* holds
                SANITIZER.note_blocking("fsync", "wal.log:sync")
            os.fsync(fd)
            synced = covered
        finally:
            with self._lock:
                self._flushing = False
                self._flushed.notify_all()
                if synced:
                    self.fsyncs += 1
                    self._pending -= synced
        return True

    # ------------------------------------------------------------------
    # Rotation & teardown
    # ------------------------------------------------------------------
    def rotate(self, base_lsn: int) -> None:
        """Atomically replace the log with an empty one based at ``base_lsn``.

        The checkpoint path calls this after the snapshot and manifest
        are durable: every record at or below ``base_lsn`` is folded in,
        so the tail restarts empty. The swap is tmp-write + ``os.replace``,
        so a crash mid-rotation leaves the full old log (recovery then
        simply skips the already-checkpointed prefix).
        """
        self.sync()  # the long wait, outside the lock
        with self._lock:
            while self._flushing:  # the handle must not close under an fsync
                self._flushed.wait()
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(HEADER.pack(MAGIC, base_lsn))
                fh.flush()
                os.fsync(fh.fileno())  # repro-lint: disable=CC02 -- rotation must be atomic w.r.t. appends: the empty log's durability and the handle swap happen under the same lock that orders appends
            os.replace(tmp, self.path)
            self._fh.close()
            self._fh = open(self.path, "ab")
            self._pending = 0
            self.base_lsn = base_lsn
            self.last_lsn = max(self.last_lsn, base_lsn)

    def close(self) -> None:
        if self._fh.closed:
            return
        self.sync()
        self._fh.close()

    def abandon(self) -> None:
        """Drop the handle WITHOUT flushing or syncing (crash simulation
        only): whatever the OS already has is what a dead process
        leaves, and frames still in this process die with it."""
        with self._lock:
            if not self._fh.closed:
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), self._fh.fileno())
                self._fh.close()

    def stats(self) -> dict:
        return {
            "base_lsn": self.base_lsn,
            "last_lsn": self.last_lsn,
            "log_appends": self.log_appends,
            "fsyncs": self.fsyncs,
            "pending": self._pending,
        }
