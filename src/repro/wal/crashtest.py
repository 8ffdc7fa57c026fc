"""Crash-injection harness: prove recovery converges at every crash point.

The harness builds a small durable store, drives a deterministic mutation
script through a durable :class:`~repro.service.engine.QueryEngine`
(including a mid-script checkpoint), and then simulates crashes:

* **log truncation** at every byte-boundary class of every record --
  clean record boundary, mid-frame-header, mid-payload -- plus CRC
  corruption of a mid-log and the final record (a flipped byte);
* **checkpoint interruption** at each step of the checkpoint protocol
  (after the snapshot temp write, after the snapshot replace, after the
  manifest replace, i.e. before log rotation);
* **snapshot corruption** (a truncated checkpoint file), which must fail
  recovery *cleanly* -- a diagnosable error, never silent bad data.

For every survivable crash point the recovered index must (a) answer
point / window / nearest probes identically to a never-crashed oracle
built from the surviving mutation prefix, (b) have replayed exactly the
log records past the checkpoint (the ``replayed_records`` counter), and
(c) fsck clean -- both the live index walk and, after re-checkpointing,
the whole durable store. Used by ``tests/test_wal_crash.py`` over all
three paper structures.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pmr import PMRQuadtree
from repro.core.rplus import RPlusTree
from repro.core.rtree import RStarTree
from repro.geometry import Point, Rect, Segment
from repro.storage.codec import CodecError
from repro.storage.context import StorageContext
from repro.wal.log import FRAME, HEADER, scan_log
from repro.wal.records import WalError
from repro.wal.store import DurableStore, SimulatedCrash, replay_records

#: Small world so the matrix runs deep decompositions quickly.
SMALL_WORLD = 1024
SMALL_DEPTH = 10

STRUCTURES = ("R*", "R+", "PMR")

#: A mutation script step: ("insert", Segment) | ("delete", seg_id) |
#: ("checkpoint", None). Mutation steps get LSNs 1, 2, ... in order;
#: checkpoint steps consume no LSN.
Step = Tuple[str, Any]


def make_index(kind: str, ctx: StorageContext):
    if kind == "R*":
        return RStarTree(ctx)
    if kind == "R+":
        return RPlusTree(ctx, world=Rect(0, 0, SMALL_WORLD, SMALL_WORLD))
    if kind == "PMR":
        return PMRQuadtree(ctx, max_depth=SMALL_DEPTH, world_size=SMALL_WORLD)
    raise KeyError(f"crash matrix supports {STRUCTURES}, not {kind!r}")


def base_map(n: int = 5, pitch: int = 120) -> List[Segment]:
    """A planar n x n lattice inside the small world."""
    segs: List[Segment] = []
    for i in range(n):
        for j in range(n):
            x, y = (i + 1) * pitch, (j + 1) * pitch
            if i + 1 < n:
                segs.append(Segment(x, y, x + pitch, y))
            if j + 1 < n:
                segs.append(Segment(x, y, x, y + pitch))
    return segs


def default_script(base_count: int) -> List[Step]:
    """A deterministic mixed script: inserts, deletes of base and of
    freshly inserted segments, a double delete (logged but a no-op on
    apply), and a mid-script checkpoint."""
    steps: List[Step] = []
    diag = [
        Segment(40 + 90 * i, 40 + 70 * i, 40 + 90 * (i + 1), 40 + 70 * (i + 1))
        for i in range(6)
    ]
    steps.extend(("insert", s) for s in diag[:3])
    steps.append(("delete", 0))  # a base segment
    steps.append(("delete", base_count + 1))  # a fresh segment
    steps.append(("checkpoint", None))
    steps.extend(("insert", s) for s in diag[3:])
    steps.append(("delete", 3))  # another base segment
    steps.append(("delete", base_count + 1))  # double delete: no-op
    steps.append(("insert", Segment(500, 500, 620, 560)))
    steps.append(("delete", base_count + 4))  # post-checkpoint insert
    return steps


def mutation_steps(steps: List[Step]) -> List[Step]:
    return [s for s in steps if s[0] != "checkpoint"]


# ----------------------------------------------------------------------
# Oracle: the never-crashed reference state
# ----------------------------------------------------------------------
def oracle_index(kind: str, base: List[Segment], mutations: List[Step]):
    """Apply base + a mutation prefix to a fresh, non-durable index."""
    ctx = StorageContext.create()
    index = make_index(kind, ctx)
    for seg_id in ctx.load_segments(base):
        index.insert(seg_id)
    for op, arg in mutations:
        if op == "insert":
            index.insert(ctx.segments.append(arg))
        else:
            try:
                index.delete(int(arg))
            except KeyError:
                continue  # same no-op semantics as replay
    return index


def probe_results(index, max_points: int = 40) -> Dict[str, Any]:
    """Deterministic probe battery; comparable across index structures.

    Point and window answers are exact id sets. Nearest answers compare
    by distance multiset (rounded), which is invariant under the
    tie-breaking freedom different tree shapes legitimately have.
    """
    from repro.core.queries.spec import QuerySpec, execute_spec

    table = index.ctx.segments
    points = []
    step = max(1, len(table) // max_points)
    for seg_id in range(0, len(table), step):
        seg = table.peek(seg_id)
        # Coerce: a snapshot round-trips coordinates through float32, an
        # in-memory oracle keeps whatever the script passed in.
        points.append((float(seg.x1), float(seg.y1)))
    out: Dict[str, Any] = {}
    for x, y in points:
        out[f"point:{x}:{y}"] = sorted(
            execute_spec(index, QuerySpec.point(Point(x, y)))
        )
    for rect in (
        Rect(0, 0, 300, 300),
        Rect(200, 200, 700, 700),
        Rect(0, 0, SMALL_WORLD, SMALL_WORLD),
    ):
        out[f"window:{rect}"] = sorted(
            execute_spec(index, QuerySpec.window(rect, "intersects"))
        )
    for x, y in ((50, 50), (430, 410), (900, 120)):
        pairs = execute_spec(index, QuerySpec.nearest(Point(x, y), 3))
        out[f"nearest:{x}:{y}"] = sorted(round(d, 6) for _, d in pairs)
    return out


# ----------------------------------------------------------------------
# Building the live (to-be-crashed) store
# ----------------------------------------------------------------------
def build_live_store(
    root: str,
    kind: str,
    steps: List[Step],
    group_commit: int = 1,
    crash_checkpoint_at: Optional[str] = None,
) -> Tuple[DurableStore, List[Segment], bool]:
    """Create a durable store and drive the script through an engine.

    With ``crash_checkpoint_at`` set, the (single) checkpoint step raises
    :class:`SimulatedCrash` at that protocol point; the script stops
    there, the log handle is abandoned unsynced, and the third return
    value is True -- exactly what a killed process leaves behind.
    """
    from repro.service.engine import QueryEngine

    base = base_map()
    ctx = StorageContext.create()
    index = make_index(kind, ctx)
    for seg_id in ctx.load_segments(base):
        index.insert(seg_id)
    store = DurableStore.create(root, index, group_commit=group_commit)
    engine = QueryEngine(index, store=store)
    crashed = False
    for op, arg in steps:
        if op == "insert":
            engine.insert_segment(arg)
        elif op == "delete":
            try:
                engine.delete(int(arg))
            except KeyError:
                continue  # double delete: logged, applied as no-op
        else:
            try:
                engine.checkpoint(_crash_point=crash_checkpoint_at)
            except SimulatedCrash:
                crashed = True
                break
    store.wal.abandon()  # drop the handle as a dead process would
    return store, base, crashed


# ----------------------------------------------------------------------
# Crash cases
# ----------------------------------------------------------------------
@dataclass
class CrashOutcome:
    case: str
    ok: bool
    survived_lsn: int = -1
    replayed_records: int = -1
    detail: str = ""


@dataclass
class CrashMatrixReport:
    kind: str
    outcomes: List[CrashOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[CrashOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        return (
            f"{self.kind}: {len(self.outcomes)} crash cases, "
            f"{len(self.failures)} failure(s)"
        )


def _copy_store(src: str, dst: str) -> None:
    shutil.copytree(src, dst)


def _truncate(path: str, size: int) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(size)


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


def _must_refuse(case: str, root: str, what: str) -> CrashOutcome:
    """Media damage no crash can produce: the opener must refuse it."""
    try:
        DurableStore.open(root).close()
    except (WalError, CodecError):
        return CrashOutcome(case, True)
    return CrashOutcome(case, False, detail=f"{what} not detected")


def _verify_recovery(
    case: str,
    root: str,
    kind: str,
    base: List[Segment],
    mutations: List[Step],
) -> CrashOutcome:
    """Open a damaged store and hold it to the acceptance criteria."""
    from repro.analysis import check_index, has_errors
    from repro.analysis.fsck_wal import check_durable

    store = DurableStore.open(root)
    try:
        survived = store.last_lsn
        expected_replay = survived - store.checkpoint_lsn
        if store.replayed_records != expected_replay:
            return CrashOutcome(
                case,
                False,
                survived,
                store.replayed_records,
                f"replayed {store.replayed_records} records, expected the "
                f"post-checkpoint suffix of {expected_replay}",
            )
        oracle = oracle_index(kind, base, mutations[:survived])
        got = probe_results(store.index)
        want = probe_results(oracle)
        if got != want:
            diff = [k for k in want if got.get(k) != want[k]][:3]
            return CrashOutcome(
                case, False, survived, store.replayed_records,
                f"probe mismatch vs oracle at {diff}",
            )
        findings = check_index(store.index)
        if findings:
            return CrashOutcome(
                case, False, survived, store.replayed_records,
                f"recovered index fsck: {findings[0].rule} {findings[0].detail}",
            )
        store.checkpoint()
        dir_findings = check_durable(root)
        if has_errors(dir_findings):
            bad = [f for f in dir_findings if f.severity == "error"][0]
            return CrashOutcome(
                case, False, survived, store.replayed_records,
                f"store fsck after re-checkpoint: {bad.rule} {bad.detail}",
            )
        return CrashOutcome(case, True, survived, store.replayed_records)
    finally:
        store.close()


def run_crash_matrix(
    workdir: str,
    kind: str = "R*",
    steps: Optional[List[Step]] = None,
) -> CrashMatrixReport:
    """Run the full crash matrix for one structure under ``workdir``."""
    steps = default_script(len(base_map())) if steps is None else steps
    mutations = mutation_steps(steps)
    report = CrashMatrixReport(kind)
    live = os.path.join(workdir, "live")
    _, base, _ = build_live_store(live, kind, steps)
    log_path = DurableStore.paths(live)["log"]
    snap_path_name = os.path.basename(DurableStore.paths(live)["snapshot"])
    scan = scan_log(log_path)

    cases: List[Tuple[str, str, int]] = []  # (name, damage, offset)
    for i, off in enumerate(scan.offsets):
        end = (
            scan.offsets[i + 1] if i + 1 < len(scan.offsets) else scan.valid_bytes
        )
        cases.append((f"cut-boundary@{scan.records[i].lsn}", "truncate", end))
        cases.append((f"cut-frame@{scan.records[i].lsn}", "truncate", off + 3))
        cases.append(
            (f"cut-payload@{scan.records[i].lsn}", "truncate", off + FRAME.size + 2)
        )
    if scan.offsets:
        mid = scan.offsets[len(scan.offsets) // 2]
        last = scan.offsets[-1]
        cases.append(("crc-flip@mid", "flip", mid + FRAME.size + 1))
        cases.append(("crc-flip@last", "flip", last + FRAME.size + 1))
    cases.append(("cut-header", "truncate", HEADER.size // 2))

    for n, (name, damage, offset) in enumerate(cases):
        root = os.path.join(workdir, f"case-{n}")
        _copy_store(live, root)
        target = DurableStore.paths(root)["log"]
        if damage == "truncate":
            _truncate(target, offset)
        else:
            _flip_byte(target, offset)
        if name == "cut-header":
            # Unrecoverable by design: the scan must refuse loudly.
            report.outcomes.append(_must_refuse(name, root, "damaged header"))
            continue
        report.outcomes.append(_verify_recovery(name, root, kind, base, mutations))

    # Checkpoint-protocol interruptions: the process dies mid-checkpoint.
    for crash_point in ("snapshot-tmp", "snapshot", "manifest"):
        root = os.path.join(workdir, f"ckpt-{crash_point}")
        _, base_c, crashed = build_live_store(
            root, kind, steps, crash_checkpoint_at=crash_point
        )
        if not crashed:
            report.outcomes.append(
                CrashOutcome(
                    f"ckpt-{crash_point}", False, detail="crash hook never fired"
                )
            )
            continue
        report.outcomes.append(
            _verify_recovery(f"ckpt-{crash_point}", root, kind, base_c, mutations)
        )

    # A truncated checkpoint snapshot is media corruption, not a crash
    # state our atomic-replace protocol can produce: recovery must fail
    # with a diagnosable error rather than serve bad data.
    root = os.path.join(workdir, "snapshot-truncated")
    _copy_store(live, root)
    snap = os.path.join(root, snap_path_name)
    _truncate(snap, os.path.getsize(snap) // 2)
    report.outcomes.append(_must_refuse("snapshot-truncated", root, "corrupt snapshot"))
    return report
