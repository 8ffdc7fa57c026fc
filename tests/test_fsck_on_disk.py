"""Who checks the checker, for files: one damage case per on-disk rule.

``tests/test_analysis_fsck.py::CORRUPTIONS`` damages in-memory indexes;
this is the same table for the three persisted artefacts. Every row
damages the *files* of a snapshot, a durable store or a shard set in one
way and asserts both halves of the contract:

* the fsck (``check_snapshot`` / ``check_durable`` / ``check_shard_set``)
  reports the row's rule at the row's severity, and
* the opener (``open_index`` / ``open_durable`` / ``open_shard``) refuses
  with that rule id in its message exactly when the finding is an error
  of a rule the opener can see, and otherwise opens a store whose
  answers equal a brute-force scan of the rows that must have survived.

SH03..SH05 compare stores with each other (or with the process table):
no single opener sees them, so those rows open -- a lagging shard has to,
to be caught up.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import struct

import pytest

from tests.conftest import build_index, lattice_map, oracle_in_window
from repro.analysis import (
    ERROR,
    FSCK_RULES,
    WARNING,
    check_durable,
    check_shard_set,
    check_snapshot,
    has_errors,
)
from repro.core.queries.spec import QuerySpec, execute_spec
from repro.data.counties import generate_county
from repro.errors import SnapshotError, WalError
from repro.geometry import Rect, Segment
from repro.service import QueryEngine, open_index, save_index
from repro.shard import ShardMap, init_shard_set
from repro.shard.worker import addr_path, open_shard
from repro.storage.codec import read_header
from repro.wal import DeleteRecord, DurableStore, InsertRecord, frame_record, open_durable
from repro.wal.log import FRAME, HEADER, MAGIC, scan_log

WINDOWS = [Rect(0, 0, 1024, 1024), Rect(150, 150, 420, 380), Rect(5, 5, 120, 60)]
#: The store's script: two inserts, a checkpoint (LSN 2), two more.
INSERTS = [
    Segment(5, 5, 100, 100),
    Segment(50, 5, 100, 10),
    Segment(300, 310, 340, 350),
    Segment(10, 40, 90, 45),
]


def answers(index):
    return [sorted(set(execute_spec(index, QuerySpec.window(w)))) for w in WINDOWS]


def oracle(rows):
    return [oracle_in_window(rows, w) for w in WINDOWS]


def edit_json(path, change):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    change(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def edit_header(path, change):
    """Rewrite a snapshot's JSON header in place, page area untouched."""
    with open(path, "rb") as fh:
        (length,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(length))
        pages = fh.read()
    change(header)
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)) + blob + pages)


def flip_page_byte(path, kind):
    """Flip one byte in the middle of the first page of ``kind``."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        offset = fh.tell()
    for _, kind_index, page_bytes in header["pages"]:
        if header["kinds"][kind_index] == kind:
            break
        offset += page_bytes
    else:
        raise AssertionError(f"{path} holds no {kind} page")
    with open(path, "r+b") as fh:
        fh.seek(offset + page_bytes // 2)
        byte = fh.read(1)
        fh.seek(offset + page_bytes // 2)
        fh.write(bytes([byte[0] ^ 0x01]))


def write_log(path, base_lsn, records):
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, base_lsn))
        for record in records:
            fh.write(frame_record(record))


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------
def _truncated_page_area(path):
    os.truncate(path, os.path.getsize(path) - 40)


def _inventory_page_not_in_page_table(path):
    edit_header(path, lambda h: h["manifest"]["state"]["page_ids"].append(99_999))


def _free_list_claims_a_dumped_page(path):
    edit_header(path, lambda h: h["free_ids"].append(h["pages"][0][0]))


def _free_list_claims_a_referenced_page(path):
    def change(header):
        header["manifest"]["state"]["page_ids"].append(99_999)
        header["free_ids"].append(99_999)

    edit_header(path, change)


def _unknown_manifest_version(path):
    edit_header(path, lambda h: h["manifest"].update(version=7))


def _unknown_kind(path):
    edit_header(path, lambda h: h["manifest"].update(kind="quadtree-of-theseus"))


def _no_manifest(path):
    edit_header(path, lambda h: h.update(manifest=None))


def _format_2_header(path):
    """What the previous build wrote: its number, its page-table rows."""

    def change(header):
        header["format"] = 2
        kinds = header.pop("kinds")
        header["pages"] = [
            {"id": pid, "kind": kinds[k], "length": n} for pid, k, n in header["pages"]
        ]

    edit_header(path, change)


def _format_99_header(path):
    edit_header(path, lambda h: h.update(format=99))


def _flipped_segment_page_byte(path):
    flip_page_byte(path, "segments")  # a coordinate: every deep rule passes it


def _flipped_btree_page_byte(path):
    flip_page_byte(path, "btree")


def _flipped_rtree_page_byte(path):
    flip_page_byte(path, "rtree")


# ----------------------------------------------------------------------
# Durable stores (snapshot at LSN 2, manifest at LSN 2, log 3..4 on base 2)
# ----------------------------------------------------------------------
def _path(root, name):
    return DurableStore.paths(root)[name]


def _manifest_missing(root):
    os.remove(_path(root, "manifest"))


def _manifest_not_json(root):
    with open(_path(root, "manifest"), "w") as fh:
        fh.write("{not json")


def _manifest_not_an_object(root):
    with open(_path(root, "manifest"), "w") as fh:
        fh.write("[]")


def _manifest_unknown_version(root):
    edit_json(_path(root, "manifest"), lambda m: m.update(version=7))


def _manifest_ahead_of_snapshot(root):
    edit_json(_path(root, "manifest"), lambda m: m.update(checkpoint_lsn=99))


def _manifest_behind_snapshot(root):
    edit_json(_path(root, "manifest"), lambda m: m.update(checkpoint_lsn=0))


def _snapshot_missing(root):
    os.remove(_path(root, "snapshot"))


def _store_snapshot_format_2(root):
    _format_2_header(_path(root, "snapshot"))


def _store_snapshot_format_99(root):
    _format_99_header(_path(root, "snapshot"))


def _store_snapshot_page_byte_flipped(root):
    flip_page_byte(_path(root, "snapshot"), "segments")


def _snapshot_without_embedded_lsn(root):
    edit_header(_path(root, "snapshot"), lambda h: h["manifest"].pop("wal"))


def _log_missing(root):
    os.remove(_path(root, "log"))


def _log_bad_magic(root):
    with open(_path(root, "log"), "r+b") as fh:
        fh.write(b"NOTAWAL!")


def _torn_tail(root):
    os.truncate(_path(root, "log"), os.path.getsize(_path(root, "log")) - 3)


def _crc_flip_mid_log(root):
    log = _path(root, "log")
    first = scan_log(log).offsets[0]
    with open(log, "r+b") as fh:
        fh.seek(first + FRAME.size + 1)
        byte = fh.read(1)
        fh.seek(first + FRAME.size + 1)
        fh.write(bytes([byte[0] ^ 0xFF]))


def _lsn_gap(root):
    log = _path(root, "log")
    third, fourth = scan_log(log).records
    write_log(log, 2, [third, InsertRecord(5, fourth.seg_id, fourth.segment)])


def _base_above_checkpoint(root):
    with open(_path(root, "log"), "r+b") as fh:
        fh.write(HEADER.pack(MAGIC, 9))


def _base_below_checkpoint(root):
    """The log as it stood had the checkpoint died before rotating it."""
    log = _path(root, "log")
    n = len(lattice_map(8))
    folded = [InsertRecord(i + 1, n + i, INSERTS[i]) for i in range(2)]
    write_log(log, 0, folded + scan_log(log).records)


# ----------------------------------------------------------------------
# Shard sets (two shards, s0 and s1; the opener is open_shard(root, "s0"))
# ----------------------------------------------------------------------
def _map_missing(root):
    os.remove(ShardMap.path(root))


def _map_not_a_tiling(root):
    edit_json(ShardMap.path(root), lambda m: m["shards"][0].update(hi=3))


def _map_not_an_object(root):
    with open(ShardMap.path(root), "w") as fh:
        fh.write("[]")


def _store_missing(root):
    shutil.rmtree(os.path.join(root, "s0"))


def _shard_snapshot_format_2(root):
    _store_snapshot_format_2(os.path.join(root, "s0"))


def _shard_snapshot_format_99(root):
    _store_snapshot_format_99(os.path.join(root, "s0"))


def _insert_through(root, shard_id, *segments):
    _, engine = open_shard(root, shard_id)
    for segment in segments:
        engine.insert_segment(segment)
    engine.store.close()


def _lagging_shard(root):
    _insert_through(root, "s1", INSERTS[0])


def _reordered_rows(root):
    """Both shards apply the same two inserts, in opposite orders: equal
    LSNs, equal lengths, different tables."""
    _insert_through(root, "s0", INSERTS[0], INSERTS[1])
    _insert_through(root, "s1", INSERTS[1], INSERTS[0])


def _owned_by(root):
    """``{seg_id: set of owning shard ids}`` over the replicated table."""
    smap = ShardMap.load(root)
    store = open_durable(os.path.join(root, "s0"), index_filter=smap.index_filter("s0"))
    table = store.index.ctx.segments
    owners = {
        seg_id: {
            spec.shard_id
            for spec in smap.shards
            if smap.covers(spec, table.peek(seg_id).mbr())
        }
        for seg_id in table.iter_ids()
    }
    store.close()
    return owners


def _reindex(root, shard_id, change):
    """Edit a shard's index behind the log's back and checkpoint it (the
    LSN does not move, so only the region rules can notice)."""
    store = open_durable(os.path.join(root, shard_id))
    change(store.index)
    store.checkpoint()
    store.close()


def _foreign_segment(root):
    seg_id = next(s for s, owners in _owned_by(root).items() if owners == {"s1"})
    _reindex(root, "s0", lambda index: index.insert(seg_id))


def _missing_segment(root):
    seg_id = next(s for s, owners in _owned_by(root).items() if owners == {"s0", "s1"})
    _reindex(root, "s0", lambda index: index.delete(seg_id))


def _dead_shard_addr(root):
    with open(addr_path(os.path.join(root, "s0")), "w", encoding="utf-8") as fh:
        json.dump({"host": "127.0.0.1", "port": 1, "pid": 2**22 - 1}, fh)


#: ``(artefact, damage, rule, severity, surviving inserts)``: the damage
#: function corrupts the files of a freshly made artefact; the last
#: column is how many of :data:`INSERTS` a store that still opens must
#: answer with (``None`` where the row asserts no answers).
ON_DISK_DAMAGE = [
    ("snapshot", _truncated_page_area, "FS01", ERROR, None),
    ("snapshot", _inventory_page_not_in_page_table, "FS01", ERROR, None),
    ("snapshot", _unknown_manifest_version, "FS01", ERROR, None),
    ("snapshot", _unknown_kind, "FS01", ERROR, None),
    ("snapshot", _no_manifest, "FS01", ERROR, None),
    ("snapshot", _format_2_header, "FS01", ERROR, None),
    ("snapshot", _format_99_header, "FS01", ERROR, None),
    ("snapshot", _flipped_segment_page_byte, "FS01", ERROR, None),
    ("snapshot", _flipped_rtree_page_byte, "FS01", ERROR, None),
    ("pmr", _flipped_segment_page_byte, "FS01", ERROR, None),
    ("pmr", _flipped_btree_page_byte, "FS01", ERROR, None),
    ("pmr", _truncated_page_area, "FS01", ERROR, None),
    ("snapshot", _free_list_claims_a_dumped_page, "FS02", ERROR, None),
    ("snapshot", _free_list_claims_a_referenced_page, "FS03", ERROR, None),
    ("store", _manifest_missing, "FS09", ERROR, None),
    ("store", _manifest_not_json, "FS09", ERROR, None),
    ("store", _manifest_not_an_object, "FS09", ERROR, None),
    ("store", _manifest_unknown_version, "FS09", ERROR, None),
    ("store", _manifest_ahead_of_snapshot, "FS09", ERROR, None),
    ("store", _manifest_behind_snapshot, "FS09", WARNING, 4),
    ("store", _snapshot_missing, "FS09", ERROR, None),
    ("store", _snapshot_without_embedded_lsn, "FS09", ERROR, None),
    ("store", _store_snapshot_format_2, "FS01", ERROR, None),
    ("store", _store_snapshot_format_99, "FS01", ERROR, None),
    ("store", _store_snapshot_page_byte_flipped, "FS01", ERROR, None),
    ("store", _log_missing, "FS07", WARNING, 2),
    ("store", _log_bad_magic, "FS07", ERROR, None),
    ("store", _torn_tail, "FS07", WARNING, 3),
    ("store", _crc_flip_mid_log, "FS07", WARNING, 2),
    ("store", _lsn_gap, "FS08", ERROR, None),
    ("store", _base_above_checkpoint, "FS10", ERROR, None),
    ("store", _base_below_checkpoint, "FS10", WARNING, 4),
    ("shards", _map_missing, "SH01", ERROR, None),
    ("shards", _map_not_a_tiling, "SH01", ERROR, None),
    ("shards", _map_not_an_object, "SH01", ERROR, None),
    ("shards", _store_missing, "SH02", ERROR, None),
    ("shards", _shard_snapshot_format_2, "FS01", ERROR, None),
    ("shards", _shard_snapshot_format_99, "FS01", ERROR, None),
    ("shards", _lagging_shard, "SH03", ERROR, None),
    ("shards", _reordered_rows, "SH03", ERROR, None),
    ("shards", _foreign_segment, "SH04", ERROR, None),
    ("shards", _missing_segment, "SH04", ERROR, None),
    ("shards", _dead_shard_addr, "SH05", WARNING, 0),
]

#: Rules a single opener can see; the rest need every store of the set.
OPENER_RULES = re.compile(r"FS|SH0[12]")


def make_snapshot(tmp_path):
    path = str(tmp_path / "index.snap")
    save_index(build_index("R*", lattice_map(8)), path)
    return path, lattice_map(8)


def make_pmr_snapshot(tmp_path):
    path = str(tmp_path / "pmr.snap")
    save_index(build_index("PMR", lattice_map(8)), path)
    return path, lattice_map(8)


def make_store(tmp_path):
    root = str(tmp_path / "store")
    store = DurableStore.create(root, build_index("R*", lattice_map(8)))
    engine = QueryEngine(store.index, store=store)
    for segment in INSERTS[:2]:
        engine.insert_segment(segment)
    engine.checkpoint()
    for segment in INSERTS[2:]:
        engine.insert_segment(segment)
    store.close()
    return root, lattice_map(8)


def make_shards(tmp_path):
    root = str(tmp_path / "shards")
    map_data = generate_county("cecil", scale=0.01)
    init_shard_set(root, "R*", map_data=map_data, n_shards=2)
    return root, None


ARTEFACTS = {
    "snapshot": (make_snapshot, check_snapshot, open_index, SnapshotError),
    "pmr": (make_pmr_snapshot, check_snapshot, open_index, SnapshotError),
    # A store is refused by its own rules (WalError) or its snapshot's.
    "store": (make_store, check_durable, open_durable, (WalError, SnapshotError)),
    "shards": (
        make_shards,
        check_shard_set,
        lambda root: open_shard(root, "s0")[1].store,
        ValueError,
    ),
}


@pytest.mark.parametrize(
    "artefact,damage,rule,severity,survivors",
    ON_DISK_DAMAGE,
    ids=[f"{a}-{d.__name__.strip('_')}" for a, d, _, _, _ in ON_DISK_DAMAGE],
)
def test_fsck_and_opener_agree_on_damaged_files(
    artefact, damage, rule, severity, survivors, tmp_path
):
    make, check, opener, refusal = ARTEFACTS[artefact]
    target, base = make(tmp_path)
    assert check(target) == []
    damage(target)

    findings = check(target)
    hits = [f for f in findings if f.rule == rule]
    assert hits and {f.severity for f in hits} == {severity}, [
        f.to_dict() for f in findings
    ]
    refusable = [f for f in findings if OPENER_RULES.match(f.rule)]
    if has_errors(refusable):
        with pytest.raises(refusal, match=rule) as refused:
            opener(target)
        # The same finding, not merely the same rule id.
        assert any(f.detail in str(refused.value) for f in hits)
        return
    opened = opener(target)  # a warning, or a rule only the set can see
    try:
        if survivors is not None and base is not None:
            index = getattr(opened, "index", opened)
            assert answers(index) == oracle(base + INSERTS[:survivors])
    finally:
        getattr(opened, "close", lambda: None)()


@pytest.mark.parametrize("damage,theirs", [(_format_2_header, 2), (_format_99_header, 99)])
def test_format_refusal_names_both_numbers_and_the_remedy(damage, theirs, tmp_path):
    path, _ = make_snapshot(tmp_path)
    damage(path)
    (finding,) = check_snapshot(path)
    assert finding.rule == "FS01"
    for said in (f"format {theirs}", "format 3", "`snapshot`", "re-create the store"):
        assert said in finding.detail


def test_every_on_disk_rule_has_a_damage_row():
    on_disk = re.compile(r"FS0[1-3]|FS(0[7-9]|10)|SH")
    owed = {rule for rule in FSCK_RULES.rules if on_disk.match(rule)}
    assert len(owed) == 12
    assert owed == {rule for _, _, rule, _, _ in ON_DISK_DAMAGE}


def test_digest_does_not_depend_on_where_the_checkpoint_fell(tmp_path):
    """SH03 compares row digests across stores that checkpoint at
    different times: the snapshot's page blobs and the log's records
    must hash as one stream of rows. A delete moves the LSN only."""
    from repro.wal.store import read_store

    roots = [str(tmp_path / name) for name in ("early", "late", "never")]
    for root, checkpoint_after in zip(roots, (1, 3, None)):
        store = DurableStore.create(root, build_index("R*", lattice_map(8)))
        engine = QueryEngine(store.index, store=store)
        for i, segment in enumerate(INSERTS):
            engine.insert_segment(segment)
            if i == 1:
                engine.delete(0)
            if i == checkpoint_after:
                engine.checkpoint()
        store.close()
    states = [read_store(root) for root in roots]
    assert len({(s.last_lsn, s.table) for s in states}) == 1
    assert states[0].last_lsn == 5
    assert [s.checkpoint_lsn for s in states] == [3, 5, 0]
    assert isinstance(states[2].suffix[2], DeleteRecord)
