"""Shard-set integrity checks (rules SH01..SH05).

A shard set adds cross-store invariants no single-store fsck can see:
the manifest must describe a valid tiling, every shard named by it must
hold a durable store, the **replicated tables** must agree (same
mutation stream, so same last LSN and same table length), and each
shard's index must hold exactly the live segments whose bounding boxes
touch its region -- nothing foreign, nothing missing.

* **SH01** -- manifest damage: missing, unreadable, or not a valid
  contiguous tiling of the curve. Fatal: nothing else is checkable.
* **SH02** -- a shard named by the manifest has no durable store (or an
  unreadable one).
* **SH03** -- replicated-table divergence: shards disagree on last LSN,
  table length or the CRC of the rows. The lagging shard missed
  mutations (a worker was down while the router kept applying);
  ``python -m repro shard-catchup`` repairs it from a peer's log. Equal
  length, different rows: the stream was applied in different orders.
* **SH04** -- region violation: a shard's index holds a live segment
  whose bounding box does not touch the shard's cell union, or is
  missing one that does. Either the manifest changed without a
  rebuild, or an index filter was bypassed.
* **SH05** -- stale address file: ``shard.addr`` names a process that
  is gone. A warning -- workers rewrite the file on start -- but a
  router pointed here will report the shard unavailable.

Each shard's store also gets the full :func:`~repro.analysis.fsck_wal.
check_state` pass, so the FS and structural rules apply per shard.
:func:`repro.shard.worker.open_shard` refuses on SH01 and SH02; the
other rules compare stores, so no single opener sees them -- a lagging
shard must open, to be caught up.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import FSCK_RULES, Finding, error, has_errors, warning
from repro.analysis.fsck_wal import check_state, store_findings

SH01 = FSCK_RULES.register("SH01", "shard manifest missing or invalid")
SH02 = FSCK_RULES.register("SH02", "shard store missing or unreadable")
SH03 = FSCK_RULES.register(
    "SH03", "replicated tables diverge across shards (LSN, length or rows)"
)
SH04 = FSCK_RULES.register(
    "SH04", "shard index disagrees with its region (foreign or missing segment)"
)
SH05 = FSCK_RULES.register("SH05", "shard address file names a dead process")


def shard_findings(root: str, shard_id: Optional[str] = None):
    """``(shard map, findings)``: SH01 over the map file (the map is
    ``None`` exactly when it fires), then SH02 over the presence of
    ``shard_id``'s store -- of every shard's, given none."""
    from repro.shard.manifest import ShardMap
    from repro.wal.store import DurableStore

    try:
        smap = ShardMap.load(root)
    except (FileNotFoundError, ValueError) as exc:
        detail = f"shard manifest is unusable: {exc}"
        return None, [error(SH01, None, ShardMap.path(root), detail)]
    return smap, [
        error(
            SH02,
            None,
            smap.store_path(root, spec.shard_id),
            f"shard {spec.shard_id} has no durable store",
        )
        for spec in (smap.shards if shard_id is None else [smap.shard(shard_id)])
        if not DurableStore.exists(smap.store_path(root, spec.shard_id))
    ]


def _region_scan(
    smap, spec, store_root: str
) -> Tuple[List[Finding], set, Dict[int, object]]:
    """SH04 (foreign side): the checkpoint index's live set vs. region.

    Checked against the *snapshot* (the WAL suffix is not replayed here:
    the suffix applies identically everywhere, so region errors it could
    introduce are recovery bugs the routed tests catch, while fsck stays
    a no-replay static pass). Returns the findings plus the shard's live
    set and the segments it peeked, so the caller can run the missing
    side across shards.
    """
    from repro.geometry import Rect
    from repro.service.snapshot import open_index
    from repro.shard.manifest import segment_mbr
    from repro.wal.store import DurableStore

    findings: List[Finding] = []
    snap = DurableStore.paths(store_root)["snapshot"]
    index = open_index(snap)
    table = index.ctx.segments
    world = Rect(0.0, 0.0, smap.world_size, smap.world_size)
    live = set(index.candidate_ids_in_rect(world))
    segments = {seg_id: table.peek(seg_id) for seg_id in live}
    for seg_id in sorted(live):
        if not smap.covers(spec, segment_mbr(segments[seg_id])):
            findings.append(
                error(
                    SH04,
                    None,
                    snap,
                    f"shard {spec.shard_id} indexes segment {seg_id} whose "
                    f"bounding box does not touch its region",
                )
            )
    return findings, live, segments


def _check_addr(store_root: str) -> List[Finding]:
    from repro.shard.worker import addr_path, read_addr

    path = addr_path(store_root)
    if not os.path.exists(path):
        return []
    try:
        pid = int(read_addr(store_root)["pid"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [warning(SH05, None, path, f"address file is unreadable: {exc}")]
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return [
            warning(
                SH05,
                None,
                path,
                f"address file names pid {pid}, which is gone (the worker "
                f"was killed; restart it to refresh the file)",
            )
        ]
    except (PermissionError, OSError):
        return []  # alive but not ours, or unknowable: not a finding
    return []


def check_shard_set(root: str, deep: bool = True) -> List[Finding]:
    """Fsck a whole shard set: manifest, every store, and the
    cross-shard invariants. ``deep=False`` skips the per-store page
    walks -- the snapshot's and SH04's region scan -- (the rules an open
    runs, FS07..FS10, and the cross-checks SH01..SH03 and SH05 still do)."""
    from repro.wal.store import DurableStore, read_store

    root = os.fspath(root)
    smap, findings = shard_findings(root)
    if smap is None:
        return findings

    states: Dict[str, Tuple[int, Tuple[int, int], int]] = {}
    live_sets: Dict[str, set] = {}
    seen_segments: Dict[int, object] = {}
    for spec in smap.shards:
        store_root = smap.store_path(root, spec.shard_id)
        if not DurableStore.exists(store_root):
            continue  # SH02, above
        state = read_store(store_root)
        own = check_state(state) if deep else store_findings(state)
        findings.extend(own + _check_addr(store_root))
        if has_errors(own):
            continue  # its own findings say why: nothing to compare or walk
        try:
            states[spec.shard_id] = (state.last_lsn, state.table, state.checkpoint_lsn)
        except (OSError, KeyError, TypeError) as exc:
            detail = f"shard {spec.shard_id} table is unreadable: {exc}"
            findings.append(error(SH02, None, store_root, detail))
            continue
        if deep:
            region, live, segments = _region_scan(smap, spec, store_root)
            findings.extend(region)
            live_sets[spec.shard_id] = live
            seen_segments.update(segments)

    if deep and len(live_sets) > 1 and len(set(states.values())) == 1:
        # Missing side of SH04: every globally-live segment must be
        # indexed by every shard whose region its bounding box touches.
        # Only meaningful when last LSN, table rows, AND checkpoint
        # LSN all agree -- snapshots taken at different checkpoint times
        # legitimately see different live universes (SH03 covers real
        # divergence).
        from repro.shard.manifest import segment_mbr

        global_live = set()
        for live in live_sets.values():
            global_live |= live
        for spec in smap.shards:
            live = live_sets.get(spec.shard_id)
            if live is None:
                continue
            for seg_id in sorted(global_live - live):
                if smap.covers(spec, segment_mbr(seen_segments[seg_id])):
                    findings.append(
                        error(
                            SH04,
                            None,
                            smap.store_path(root, spec.shard_id),
                            f"shard {spec.shard_id} is missing segment "
                            f"{seg_id}, which its region covers and a peer "
                            f"indexes",
                        )
                    )

    if len(states) > 1:
        lead_id = max(states, key=lambda sid: states[sid][:2])
        lead_lsn, (lead_len, lead_crc) = states[lead_id][:2]
        for shard_id, (lsn, (length, crc), _ckpt) in sorted(states.items()):
            if (lsn, length, crc) == (lead_lsn, lead_len, lead_crc):
                continue
            findings.append(
                error(
                    SH03,
                    None,
                    smap.store_path(root, shard_id),
                    f"shard {shard_id} is at LSN {lsn} with {length} table "
                    f"row(s) (CRC {crc:08x}) but {lead_id} is at LSN "
                    f"{lead_lsn} with {lead_len} ({lead_crc:08x}): the "
                    f"replicated tables have diverged (behind: run "
                    f"shard-catchup; level: the mutation stream was applied "
                    f"in different orders)",
                )
            )
    return findings
