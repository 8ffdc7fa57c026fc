"""WAL and durable-store integrity checks (rules FS07..FS10).

The durability layer (:mod:`repro.wal`) adds three files whose mutual
consistency the storage-level fsck cannot see: the log, the checkpoint
snapshot, and the checkpoint manifest. These rules close that gap:

* **FS07** -- the log file itself: header magic/size, per-record frame
  and CRC integrity. A bad header is an error (nothing is recoverable);
  a torn *tail* is a warning, because recovery truncates it by design.
* **FS08** -- LSN discipline: records must run ``base_lsn + 1, +2, ...``
  with no gaps or duplicates. A gap is an error: replaying around it
  would silently lose mutations.
* **FS09** -- checkpoint manifest vs. snapshot: both must be readable
  (the manifest a JSON object of the supported version naming an LSN,
  the snapshot embedding one -- errors otherwise) and the manifest's
  LSN must match the one embedded in the snapshot. A snapshot *newer*
  than the manifest is a warning (an interrupted checkpoint between the
  two atomic replaces -- recovery handles it); a manifest newer than
  the snapshot is an error (the pointed-to checkpoint does not exist).
* **FS10** -- checkpoint vs. log tail: the log's base LSN must not
  exceed the checkpoint LSN (records between them would be lost --
  error); a base *below* the checkpoint merely means the log was never
  rotated (warning; recovery skips the folded prefix).

:func:`store_findings` is those rules over one
:func:`~repro.wal.store.read_store` of the directory: ``check --wal``
prints them, and ``open_durable`` refuses the store, raising the same
report, exactly when one is an **error** -- a **warning** is a state
recovery handles. :func:`check_durable` adds the full snapshot walk.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.analysis.findings import FSCK_RULES, Finding, error, warning
from repro.wal.log import LogScan
from repro.wal.store import (
    MANIFEST_VERSION,
    DurableStore,
    StoreState,
    read_log,
    read_store,
)

FS07 = FSCK_RULES.register("FS07", "WAL header or record framing/CRC damage")
FS08 = FSCK_RULES.register("FS08", "WAL LSN sequence has gaps or duplicates")
FS09 = FSCK_RULES.register(
    "FS09", "checkpoint manifest unusable or disagrees with snapshot's embedded LSN"
)
FS10 = FSCK_RULES.register(
    "FS10", "WAL base LSN inconsistent with the checkpoint LSN"
)


def _log_findings(
    path: str, scan: LogScan, checkpoint_lsn: Optional[int]
) -> List[Finding]:
    """FS07 (torn tail), FS08 and FS10 over one scanned log. The
    ``page_id`` of a record-level finding is the record's file offset
    (the closest analogue of a page anchor)."""
    findings: List[Finding] = []
    if scan.tail_error is not None:
        findings.append(
            warning(
                FS07,
                scan.valid_bytes,
                path,
                f"torn tail ({scan.tail_error}): {scan.torn_bytes} byte(s) "
                f"past offset {scan.valid_bytes} will be truncated on "
                f"recovery",
            )
        )
    expected = scan.base_lsn + 1
    for record, offset in zip(scan.records, scan.offsets):
        if record.lsn != expected:
            findings.append(
                error(
                    FS08,
                    offset,
                    path,
                    f"record holds LSN {record.lsn} where {expected} was "
                    f"expected (base LSN {scan.base_lsn})",
                )
            )
            expected = record.lsn  # resync so one gap yields one finding
        expected += 1
    if checkpoint_lsn is not None and scan.base_lsn > checkpoint_lsn:
        findings.append(
            error(
                FS10,
                None,
                path,
                f"log base LSN {scan.base_lsn} exceeds checkpoint LSN "
                f"{checkpoint_lsn}: records "
                f"{checkpoint_lsn + 1}..{scan.base_lsn} are missing",
            )
        )
    elif checkpoint_lsn is not None and scan.base_lsn < checkpoint_lsn:
        findings.append(
            warning(
                FS10,
                None,
                path,
                f"log base LSN {scan.base_lsn} predates checkpoint LSN "
                f"{checkpoint_lsn}: the log was not rotated (recovery "
                f"skips the folded prefix)",
            )
        )
    return findings


def check_wal(path: str, checkpoint_lsn: Optional[int] = None) -> List[Finding]:
    """Verify one log file: header, framing, CRCs, LSN contiguity.

    With ``checkpoint_lsn`` given, also applies the FS10 base-vs-
    checkpoint cross-check.
    """
    path = os.fspath(path)
    scan, log_error = read_log(path)
    if scan is None:
        return [error(FS07, None, path, log_error or "log file is missing")]
    return _log_findings(path, scan, checkpoint_lsn)


def store_findings(state: StoreState) -> List[Finding]:
    """FS07..FS10 over one reading of a durable-store directory."""
    paths = DurableStore.paths(state.root)
    findings: List[Finding] = []

    manifest_lsn = (state.manifest or {}).get("checkpoint_lsn")
    unusable = state.manifest_error
    if unusable is None and state.manifest.get("version") != MANIFEST_VERSION:
        unusable = (
            f"unsupported checkpoint manifest version "
            f"{state.manifest.get('version')!r}"
        )
    elif unusable is None and not isinstance(manifest_lsn, int):
        unusable = f"checkpoint manifest names no LSN ({manifest_lsn!r})"
    if unusable is not None:
        findings.append(error(FS09, None, paths["manifest"], unusable))

    embedded_lsn = state.checkpoint_lsn
    if embedded_lsn is None:
        detail = state.snapshot_error or (
            "snapshot manifest embeds no checkpoint LSN (not written by a "
            "durable store?)"
        )
        findings.append(error(FS09, None, paths["snapshot"], detail))
    elif unusable is None and embedded_lsn > manifest_lsn:
        findings.append(
            warning(
                FS09,
                None,
                state.root,
                f"snapshot LSN {embedded_lsn} is newer than manifest LSN "
                f"{manifest_lsn}: an interrupted checkpoint (recovery "
                f"trusts the snapshot)",
            )
        )
    elif unusable is None and embedded_lsn < manifest_lsn:
        findings.append(
            error(
                FS09,
                None,
                state.root,
                f"manifest points at checkpoint LSN {manifest_lsn} but "
                f"the snapshot holds LSN {embedded_lsn}: the checkpoint "
                f"it names does not exist",
            )
        )

    if state.scan is not None:
        findings += _log_findings(paths["log"], state.scan, embedded_lsn)
    elif state.log_error is not None:
        findings.append(error(FS07, None, paths["log"], state.log_error))
    else:
        findings.append(
            warning(
                FS07,
                None,
                paths["log"],
                "log file is missing (recovery starts a fresh tail at the "
                "checkpoint)",
            )
        )
    return findings


def check_state(state: StoreState) -> List[Finding]:
    """:func:`store_findings`, then the full snapshot walk over the
    checkpoint so the structural rules (R+ disjointness, PMR occupancy,
    storage bookkeeping, ...) apply too."""
    from repro.analysis.fsck import check_snapshot

    findings = store_findings(state)
    if state.checkpoint_lsn is not None:
        findings += check_snapshot(DurableStore.paths(state.root)["snapshot"])
    return findings


def check_durable(root: str) -> List[Finding]:
    """Fsck a whole durable-store directory (one read of it)."""
    return check_state(read_store(root))
