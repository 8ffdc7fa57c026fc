"""The durable store: checkpoint + log directory, and crash recovery.

A durable store is one directory holding three files::

    repro.service.snapshot   the latest checkpoint (a queryable snapshot,
                             its manifest embedding the checkpoint LSN)
    repro.checkpoint         a tiny JSON manifest naming that checkpoint
    repro.wal                the log of mutations since the checkpoint

**Checkpoint protocol** (:meth:`DurableStore.checkpoint`): sync the log,
write the snapshot to a temp file and ``os.replace`` it in, then the
manifest the same way, then rotate the log to an empty file based at the
checkpoint LSN. Every step is atomic and ordered so that a crash at any
point leaves a recoverable store: the snapshot's *embedded* LSN is
authoritative for where replay starts (it travels atomically with the
page data), the manifest is a cross-checkable pointer, and an
un-rotated log merely makes recovery skip an already-folded prefix.

**One reader, one judge**: only :func:`read_store` reads a store
directory, recording damage instead of raising on it; the fsck and every
opener judge that state by the same rules (FS07..FS10).

**Recovery** (:func:`open_durable` / :meth:`DurableStore.open`): bind
the snapshot, truncate a torn final log record away, and replay the
suffix of records with LSNs above the checkpoint.
Replay is idempotent -- already-stored inserts and already-gone deletes
are skipped -- and applies the net-surviving inserts in Morton order of
their centroids, the same space-filling-curve packing argument as bulk
loading: neighbouring segments are inserted together so the rebuild
touches far fewer pages than log order would.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sanitize import SANITIZER
from repro.core.pmr.locational import morton_key
from repro.geometry import Point, Segment
from repro.storage.codec import CodecError, read_header, table_rows_crc
from repro.wal.log import LogScan, WriteAheadLog, scan_log
from repro.wal.records import InsertRecord, WalError, WalRecord

SNAPSHOT_NAME = "repro.service.snapshot"
LOG_NAME = "repro.wal"
MANIFEST_NAME = "repro.checkpoint"
MANIFEST_VERSION = 1

class SimulatedCrash(RuntimeError):
    """Raised by the checkpoint crash hooks (crash-injection tests only)."""


def _fsync_dir(root: str) -> None:
    if SANITIZER.enabled:
        # The checkpoint path runs these fsyncs under the engine latch
        # (a sanctioned quiescent point); the tally makes that visible.
        SANITIZER.note_blocking("fsync", "wal.store:_fsync_dir")
    fd = os.open(root, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_publish(path: str) -> Iterator[Any]:
    """Replace ``path`` with what the body writes to the yielded binary
    stream, all or nothing: temp file beside it, flush + fsync,
    ``os.replace``, directory fsync. A body that raises (a refused
    snapshot, the crash hooks) replaces nothing and leaves no temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def read_log(path: str) -> Tuple[Optional[LogScan], Optional[str]]:
    """``(scan, error)`` of one log file: ``(None, None)`` when there is
    no file, ``(None, why)`` when its header cannot be read."""
    try:
        return scan_log(path), None
    except FileNotFoundError:
        return None, None
    except WalError as exc:
        return None, str(exc)


def _dig(obj: Any, *keys: str) -> Any:
    """``obj[k0][k1]...`` through JSON objects, ``None`` where a level
    is missing or is not an object."""
    for key in keys:
        obj = obj.get(key) if isinstance(obj, dict) else None
    return obj


@dataclass
class StoreState:
    """What one read of a store directory found: facts, not verdicts --
    a missing or unreadable file is a field saying so. The rules over
    them are :func:`repro.analysis.fsck_wal.store_findings`."""

    root: str
    #: The checkpoint manifest, when it is a JSON object; else why not.
    manifest: Optional[Dict[str, Any]] = None
    manifest_error: Optional[str] = None
    #: The snapshot's codec header and the file offset of its page area.
    header: Optional[Dict[str, Any]] = None
    page_area: int = 0
    snapshot_error: Optional[str] = None
    #: The one scan of the log; both ``None``: there is no log file.
    scan: Optional[LogScan] = None
    log_error: Optional[str] = None

    @property
    def checkpoint_lsn(self) -> Optional[int]:
        """The LSN embedded in the snapshot: where replay starts."""
        lsn = _dig(self.header, "manifest", "wal", "checkpoint_lsn")
        return lsn if isinstance(lsn, int) else None

    @cached_property
    def suffix(self) -> List[WalRecord]:
        """The log records recovery replays: those past the checkpoint."""
        checkpoint_lsn = self.checkpoint_lsn
        if self.scan is None or checkpoint_lsn is None:
            return []
        return [r for r in self.scan.records if r.lsn > checkpoint_lsn]

    @property
    def last_lsn(self) -> Optional[int]:
        """The LSN the store recovers to (``None``: no checkpoint LSN)."""
        return self.suffix[-1].lsn if self.suffix else self.checkpoint_lsn

    @cached_property
    def table(self) -> Tuple[int, int]:
        """``(rows, CRC-32 of the rows)`` of the replicated table as
        recovery rebuilds it -- the snapshot's, continued over the suffix's
        appends -- wherever the store's checkpoint fell (rule SH03)."""
        segments = self.header["manifest"]["segments"]
        appended = [
            r.segment
            for r in self.suffix
            if isinstance(r, InsertRecord) and r.seg_id >= segments["count"]
        ]
        with open(DurableStore.paths(self.root)["snapshot"], "rb") as fh:
            crc = table_rows_crc(
                fh, self.header, self.page_area, segments["page_ids"], appended
            )
        return segments["count"] + len(appended), crc


def read_store(root: str) -> StoreState:
    """Read a store directory -- manifest, snapshot header, one log
    scan -- into a :class:`StoreState`. Raises for nothing it finds."""
    state = StoreState(os.fspath(root))
    paths = DurableStore.paths(root)
    try:
        with open(paths["manifest"], "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError(f"a JSON {type(manifest).__name__}, not an object")
        state.manifest = manifest
    except FileNotFoundError:
        state.manifest_error = "checkpoint manifest is missing"
    except ValueError as exc:  # not JSON, not text, or not an object
        state.manifest_error = f"checkpoint manifest is corrupt: {exc}"
    try:
        with open(paths["snapshot"], "rb") as fh:
            state.header = read_header(fh)
            state.page_area = fh.tell()
    except FileNotFoundError:
        state.snapshot_error = "checkpoint snapshot is missing"
    except CodecError as exc:
        state.snapshot_error = f"snapshot header is unreadable: {exc}"
    state.scan, state.log_error = read_log(paths["log"])
    return state


def sound_store(root: str) -> StoreState:
    """:func:`read_store`, refusing -- :class:`WalError` carrying the
    report -- when a store rule finds an error. Warnings pass: they are
    the states recovery handles by design."""
    from repro.analysis.findings import format_findings, has_errors
    from repro.analysis.fsck_wal import store_findings

    state = read_store(root)
    findings = store_findings(state)
    if has_errors(findings):
        raise WalError(format_findings(findings, f"{state.root} cannot be recovered"))
    return state


@dataclass
class ReplayResult:
    """What one replay pass did (``replayed_records`` is the acceptance
    counter: records applied because they post-date the checkpoint)."""

    replayed_records: int = 0
    skipped_records: int = 0
    inserted: int = 0
    deleted: int = 0
    noop_deletes: int = 0


def replay_records(
    index,
    records: List[WalRecord],
    checkpoint_lsn: int,
    index_filter: Optional[Callable[[int, Segment], bool]] = None,
) -> ReplayResult:
    """Apply a log's records on top of a checkpointed index, idempotently.

    Records at or below ``checkpoint_lsn`` are skipped (they are already
    folded into the snapshot). Table appends happen in LSN order -- ids
    are positional, so order is the contract -- then the net-surviving
    inserts are indexed in Morton order, then deletes of checkpointed
    segments are applied. Replaying the same records twice converges: an
    insert already present in both table and index is a no-op, as is a
    delete of an already-deleted segment.

    ``index_filter(seg_id, segment)`` decides which replayed inserts are
    *indexed*; the table append always happens regardless (positional ids
    are a global contract). Shard workers pass their region predicate
    here so recovery rebuilds the full replicated table but only the
    locally-owned index entries; filtered-out deletes likewise become
    no-ops instead of errors.
    """
    result = ReplayResult()
    table = index.ctx.segments
    preexisting = len(table)
    pending: Dict[int, Segment] = {}
    deletes: List[int] = []
    for record in records:
        if record.lsn <= checkpoint_lsn:
            result.skipped_records += 1
            continue
        result.replayed_records += 1
        if isinstance(record, InsertRecord):
            if record.seg_id > len(table):
                raise WalError(
                    f"insert record LSN {record.lsn} names segment "
                    f"{record.seg_id} but the table holds {len(table)}; "
                    f"the log and checkpoint disagree"
                )
            if record.seg_id == len(table):
                table.append(record.segment)
            pending[record.seg_id] = record.segment
        else:
            if pending.pop(record.seg_id, None) is None:
                deletes.append(record.seg_id)
    to_insert = sorted(
        pending, key=lambda sid: morton_key(*pending[sid].mbr().center())
    )
    for seg_id in to_insert:
        if index_filter is not None and not index_filter(seg_id, pending[seg_id]):
            continue
        if seg_id < preexisting and _already_indexed(index, seg_id, pending[seg_id]):
            continue
        index.insert(seg_id)
        result.inserted += 1
    for seg_id in deletes:
        try:
            index.delete(seg_id)
            result.deleted += 1
        except KeyError:
            result.noop_deletes += 1  # already gone: duplicate replay
    return result


def _already_indexed(index, seg_id: int, segment: Segment) -> bool:
    """Is ``seg_id`` already in the index? Candidate generation at one of
    the segment's endpoints has no false negatives, so membership there
    is authoritative."""
    return seg_id in index.candidate_ids_at_point(Point(segment.x1, segment.y1))


class DurableStore:
    """One directory of checkpoint + manifest + log, and the live index."""

    def __init__(
        self,
        root: str,
        index,
        wal: WriteAheadLog,
        checkpoint_lsn: int,
        replay: Optional[ReplayResult] = None,
    ) -> None:
        self.root = os.fspath(root)
        self.index = index
        self.wal = wal
        self.checkpoint_lsn = checkpoint_lsn
        self.replay_result = replay if replay is not None else ReplayResult()
        self.checkpoints = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @classmethod
    def paths(cls, root: str) -> Dict[str, str]:
        root = os.fspath(root)
        return {
            "snapshot": os.path.join(root, SNAPSHOT_NAME),
            "log": os.path.join(root, LOG_NAME),
            "manifest": os.path.join(root, MANIFEST_NAME),
        }

    @classmethod
    def exists(cls, root: str) -> bool:
        return os.path.exists(cls.paths(root)["manifest"])

    @property
    def last_lsn(self) -> int:
        return self.wal.last_lsn

    @property
    def replayed_records(self) -> int:
        return self.replay_result.replayed_records

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, root: str, index, group_commit: int = 1, base_lsn: int = 0
    ) -> "DurableStore":
        """Make ``root`` a durable store holding ``index`` at ``base_lsn``.

        A non-zero ``base_lsn`` continues an existing LSN lineage: a
        shard split materializes each child at the parent's last LSN so
        the children's logs stay comparable with their peers' (the
        replicated mutation stream numbers every store identically).
        """
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
        if cls.exists(root):
            raise FileExistsError(
                f"{root} already holds a durable store; open it instead"
            )
        paths = cls.paths(root)
        store = cls(
            root,
            index,
            wal=WriteAheadLog.create(
                paths["log"], base_lsn=base_lsn, group_commit=group_commit
            ),
            checkpoint_lsn=base_lsn,
        )
        store._write_snapshot(base_lsn)
        store._write_manifest(base_lsn)
        return store

    @classmethod
    def open(
        cls,
        root: str,
        pool_pages: int = 16,
        group_commit: int = 1,
        repair: bool = True,
        index_filter: Optional[Callable[[int, Segment], bool]] = None,
    ) -> "DurableStore":
        """Recover a durable store: latest checkpoint + log-suffix replay.

        Refuses (:func:`sound_store`) exactly when ``check --wal`` reports
        an error. The snapshot's embedded checkpoint LSN decides where
        replay starts; a torn final log record is truncated away
        (``repair``), and a log that was never rotated after a checkpoint
        merely gets its already-folded prefix skipped.
        """
        from repro.service.snapshot import load_index, opened

        state = sound_store(root)
        paths = cls.paths(root)
        embedded = state.checkpoint_lsn
        with open(paths["snapshot"], "rb") as fh:  # its header is in ``state``
            fh.seek(state.page_area)
            index = opened(*load_index(fh, state.header, pool_pages))
        if state.scan is None:
            # A crash between checkpoint and log creation: nothing to
            # replay; start a fresh tail at the checkpoint.
            wal = WriteAheadLog.create(
                paths["log"], base_lsn=embedded, group_commit=group_commit
            )
            return cls(state.root, index, wal, checkpoint_lsn=embedded)
        replay = replay_records(
            index, state.scan.records, embedded, index_filter=index_filter
        )
        wal = WriteAheadLog.open(
            paths["log"], state.scan, group_commit=group_commit, repair=repair
        )
        return cls(state.root, index, wal, checkpoint_lsn=embedded, replay=replay)

    # ------------------------------------------------------------------
    # Logging (called by the engine under its latch)
    # ------------------------------------------------------------------
    def log_insert(self, seg_id: int, segment: Segment) -> int:
        return self.wal.log_insert(seg_id, segment)

    def log_delete(self, seg_id: int) -> int:
        return self.wal.log_delete(seg_id)

    def commit(self) -> bool:
        """Group-commit barrier, called before the client is acked.

        Returns whether an fsync ran. With ``group_commit == 1`` (the
        default) it always does: the mutation is durable before the ack.
        With ``group_commit == N > 1`` the fsync waits until N records
        are pending, so up to N - 1 acknowledged mutations can be lost
        on power failure (the trade :mod:`repro.wal.log` documents).
        """
        return self.wal.commit()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, _crash_point: Optional[str] = None) -> Dict[str, Any]:
        """Fold the log into a fresh snapshot and truncate the tail.

        ``_crash_point`` is a crash-injection hook ("snapshot-tmp",
        "snapshot", "manifest"): the harness aborts the protocol after
        that step to prove every intermediate state recovers.
        """
        lsn = self.wal.last_lsn
        self.wal.sync()
        folded = lsn - self.checkpoint_lsn
        written = self._write_snapshot(lsn, _crash_point=_crash_point)
        if _crash_point == "snapshot":
            raise SimulatedCrash("crash after snapshot replace")
        self._write_manifest(lsn)
        if _crash_point == "manifest":
            raise SimulatedCrash("crash after manifest replace")
        self.wal.rotate(lsn)
        self.checkpoint_lsn = lsn
        self.checkpoints += 1
        return {"checkpoint_lsn": lsn, "folded_records": folded, **written}

    def _write_snapshot(
        self, lsn: int, _crash_point: Optional[str] = None
    ) -> Dict[str, Any]:
        from repro.service.snapshot import save_index, snapshot_sizes

        path = self.paths(self.root)["snapshot"]
        with atomic_publish(path) as fh:
            pages = save_index(
                self.index, fh, extra={"wal": {"checkpoint_lsn": lsn}}
            )
            if _crash_point == "snapshot-tmp":
                raise SimulatedCrash("crash before snapshot replace")
        return {"pages": pages, **snapshot_sizes(path, len(self.index.ctx.segments))}

    def _write_manifest(self, lsn: int) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "checkpoint_lsn": lsn,
            "snapshot": SNAPSHOT_NAME,
            "kind": self.index.name,
            "segments": len(self.index.ctx.segments),
        }
        with atomic_publish(self.paths(self.root)["manifest"]) as fh:
            fh.write(json.dumps(manifest).encode("utf-8"))

    # ------------------------------------------------------------------
    # Observability & teardown
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = self.wal.stats()
        out["checkpoint_lsn"] = self.checkpoint_lsn
        out["checkpoints"] = self.checkpoints
        out["replayed_records"] = self.replay_result.replayed_records
        out["skipped_records"] = self.replay_result.skipped_records
        return out

    def close(self) -> None:
        self.wal.close()


#: The recovery entry point.
open_durable = DurableStore.open
