"""Index fsck: clean on fresh builds, exact findings under injected corruption.

Every corruption test damages one structure in one specific way and
asserts the checker reports the *exact* rule id (and, where the rule
anchors to a page, the exact page id) — no grepping of message strings.
The clean tests establish that none of these rules fire on a fresh build
or a fresh snapshot.
"""

from __future__ import annotations

import base64
import re
from collections import Counter

import pytest

from tests.conftest import ALL_STRUCTURES, build_index, lattice_map
from repro.analysis import FSCK_RULES, check_index, check_snapshot, has_errors
from repro.analysis.fsck_pmr import (
    PM01,
    PM02,
    PM03,
    PM04,
    PM05,
    PM06,
    PM07,
    PM08,
    PM09,
)
from repro.analysis.fsck_rplus import (
    RX01,
    RX02,
    RX03,
    RX04,
    RX05,
    RX06,
    RX07,
    RX08,
)
from repro.analysis.fsck_rtree import RS01, RS02, RS03, RS04, RS05, RS06
from repro.analysis.fsck_storage import FS01, FS02, FS03, FS04, FS05, FS06
from repro.core import SpatialIndex
from repro.core.pmr.blocks import SPLIT, WIDE, decode_directory, encode_directory
from repro.core.rtree import RTreeNode
from repro.geometry import Rect
from repro.errors import SnapshotError
from repro.service import (
    MapServer,
    QueryEngine,
    open_index,
    save_index,
    send_request,
    snapshot_info,
)
from tests.test_fsck_on_disk import edit_header


def build(kind: str):
    return build_index(kind, lattice_map(8))


def rules_of(findings):
    return {f.rule for f in findings}


def findings_for(findings, rule):
    return [f for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# Clean on fresh builds and fresh snapshots
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_STRUCTURES)
def test_fresh_build_has_zero_findings(kind):
    assert check_index(build(kind)) == []


@pytest.mark.parametrize("kind", ["R*", "R+", "PMR"])
def test_fresh_snapshot_has_zero_findings(kind, tmp_path):
    path = tmp_path / "fresh.snap"
    save_index(build(kind), path)
    assert check_snapshot(path) == []


def test_check_does_not_move_counters():
    """Neither spelling of the one validator moves a counter, a frame or
    a dirty bit, on any structure: looking is never charged."""
    for kind in ALL_STRUCTURES:
        idx = build(kind)
        ctx = idx.ctx

        def observed():
            return (
                ctx.counters.snapshot(),
                ctx.disk.physical_reads,
                ctx.disk.physical_writes,
                ctx.pool.resident_pages(),
                ctx.pool.dirty_pages(),
            )

        before = observed()
        assert check_index(idx) == [], kind
        idx.check_invariants()
        assert observed() == before, kind


def test_unsupported_structure_raises():
    class Undeclared(SpatialIndex):
        """A structure no rule set is registered for."""

    Undeclared.__abstractmethods__ = frozenset()
    with pytest.raises(ValueError, match="no fsck rules"):
        check_index(Undeclared(build("R*").ctx))


# ----------------------------------------------------------------------
# Corruption injection: R-tree family
# ----------------------------------------------------------------------
def _internal_root(idx):
    root = idx.ctx.disk.peek(idx.root_id)
    assert not root.is_leaf, "test map must build a multi-level tree"
    return root


def test_inflated_parent_entry_is_rs02():
    idx = build("R*")
    root = _internal_root(idx)
    rect, child = root.entries[0]
    root.entries[0] = (
        Rect(rect.xmin - 5, rect.ymin - 5, rect.xmax + 5, rect.ymax + 5),
        child,
    )
    findings = check_index(idx)
    hits = findings_for(findings, RS02)
    assert hits and any(f.page_id == child for f in hits)


def test_child_mbr_escaping_parent_entry_is_rs01():
    idx = build("R*")
    root = _internal_root(idx)
    rect, child = root.entries[0]
    mid_x = (rect.xmin + rect.xmax) / 2
    mid_y = (rect.ymin + rect.ymax) / 2
    root.entries[0] = (Rect(rect.xmin, rect.ymin, mid_x, mid_y), child)
    findings = check_index(idx)
    hits = findings_for(findings, RS01)
    assert hits and any(f.page_id == child for f in hits)


def test_leaf_entry_pointing_at_freed_page_is_rs06():
    idx = build("R*")
    root = _internal_root(idx)
    leaf_pid = root.entries[0][1]
    assert idx.ctx.disk.peek(leaf_pid).is_leaf
    idx.ctx.disk.free(leaf_pid)
    findings = check_index(idx)
    assert any(f.page_id == leaf_pid for f in findings_for(findings, RS06))
    # the storage layer independently flags the freed-but-referenced page
    assert any(f.page_id == leaf_pid for f in findings_for(findings, FS03))


def test_dangling_segment_pointer_is_fs04():
    idx = build("R*")
    root = _internal_root(idx)
    leaf = idx.ctx.disk.peek(root.entries[0][1])
    rect, _ = leaf.entries[0]
    bogus = len(idx.ctx.segments) + 7
    leaf.entries[0] = (rect, bogus)
    findings = check_index(idx)
    hits = findings_for(findings, FS04)
    assert hits and str(bogus) in hits[0].detail


def test_truncated_segment_table_is_fs05():
    idx = build("R*")
    pid = idx.ctx.segments.page_ids[-1]
    idx.ctx.disk.free(pid)
    findings = check_index(idx)
    assert any(f.page_id == pid for f in findings_for(findings, FS05))


# ----------------------------------------------------------------------
# Corruption injection: R+ disjointness
# ----------------------------------------------------------------------
def test_overlapping_rplus_siblings_is_rx01():
    idx = build("R+")
    root = idx.ctx.disk.peek(idx.root_id)
    assert not root.is_leaf, "test map must split the R+ root"
    (r0, c0), (r1, _c1) = root.entries[0], root.entries[1]
    root.entries[0] = (Rect.union_of([r0, r1]), c0)
    findings = check_index(idx)
    hits = findings_for(findings, RX01)
    assert hits and any(f.page_id == idx.root_id for f in hits)
    # the expanded region also breaks the exact-tiling area check
    assert RX03 in rules_of(findings)


# ----------------------------------------------------------------------
# Corruption injection: PMR B-tree Morton order
# ----------------------------------------------------------------------
def test_swapped_btree_keys_is_pm01():
    idx = build("PMR")
    disk = idx.ctx.disk
    leaf_pid = None
    for pid in sorted(idx.btree.page_ids):
        node = disk.peek(pid)
        if (
            getattr(node, "is_leaf", False)
            and len(node.entries) >= 2
            and node.entries[0] < node.entries[1]
        ):
            leaf_pid = pid
            break
    assert leaf_pid is not None, "test map must fill a B-tree leaf"
    node = disk.peek(leaf_pid)
    node.entries[0], node.entries[1] = node.entries[1], node.entries[0]
    findings = check_index(idx)
    hits = findings_for(findings, PM01)
    assert hits and any(f.page_id == leaf_pid for f in hits)


# ----------------------------------------------------------------------
# Who checks the checker: one corruption case per rule
# ----------------------------------------------------------------------
def _leaf_under_root(idx):
    """``(region, page id, node)`` of the root's first child, a leaf."""
    region, pid = _internal_root(idx).entries[0]
    leaf = idx.ctx.disk.peek(pid)
    assert leaf.is_leaf, "test map must build a two-level tree"
    return region, pid, leaf


def _must_hold(table, seg_id, region, held_elsewhere):
    """Does a positive-length piece of the segment lie in ``region``,
    while another bucket still holds it (so the checker meets it)?"""
    piece = table.peek(seg_id).clipped(region)
    return seg_id in held_elsewhere and piece is not None and not piece.is_degenerate()


def _btree_leaves(idx):
    """``(page id, node)`` of the B-tree's leaves, in chain order."""
    disk, out = idx.ctx.disk, []
    node = disk.peek(idx.btree.root_id)
    while not node.is_leaf:
        pid = node.children[0]
        node = disk.peek(pid)
    assert idx.btree.height > 1, "test map must split the B-tree root"
    while True:
        out.append((pid, node))
        if node.next_page is None:
            return out
        pid, node = node.next_page, disk.peek(node.next_page)


def _splittable_leaf_block(idx):
    return next(
        b for b in idx.root.iter_leaves() if b.count and b.depth < idx.max_depth
    )


def _underfull_leaf(idx):
    _, pid, leaf = _leaf_under_root(idx)
    del leaf.entries[1:]
    return pid


def _taller_than_it_is(idx):
    idx._height += 1
    return _leaf_under_root(idx)[1]


def _miscounted_entries(idx):
    idx._count += 1


def _child_region_escaping_the_world(idx):
    root = _internal_root(idx)
    r, child = root.entries[0]
    root.entries[0] = (Rect(r.xmin - 10, r.ymin, r.xmax, r.ymax), child)
    return idx.root_id


def _leaf_entry_outside_its_region(idx):
    _, pid, leaf = _leaf_under_root(idx)
    leaf.entries[0] = (Rect(5000, 5000, 5001, 5001), leaf.entries[0][1])
    return pid


def _segment_dropped_from_a_leaf(idx):
    region, pid, leaf = _leaf_under_root(idx)
    elsewhere = {
        seg_id
        for _, other in _internal_root(idx).entries[1:]
        for _, seg_id in idx.ctx.disk.peek(other).entries
    }
    del leaf.entries[
        next(
            i
            for i, (_, seg_id) in enumerate(leaf.entries)
            if _must_hold(idx.ctx.segments, seg_id, region, elsewhere)
        )
    ]
    return pid


def _miscounted_rplus_entries(idx):
    idx._entry_count += 1


def _freed_leaf(idx):
    pid = _leaf_under_root(idx)[1]
    idx.ctx.disk.free(pid)
    return pid


def _capacity_below_a_leaf(idx):
    _, pid, leaf = _leaf_under_root(idx)
    idx.capacity = len(leaf.entries) - 1
    return pid


def _block_below_max_depth(idx):
    next(idx.root.iter_leaves()).depth = idx.max_depth + 1


def _bucket_over_the_bound(idx):
    block = _splittable_leaf_block(idx)
    block.count = idx.threshold + block.depth + 1


def _directory_overcounts(idx):
    _splittable_leaf_block(idx).count += 1


def _btree_overcounts(idx):
    idx.btree._count += 1


def _last_entry(idx):
    _, leaf = _btree_leaves(idx)[-1]
    return leaf, leaf.entries[-1][0]


def _qedge_pointing_off_the_table(idx):
    leaf, code = _last_entry(idx)
    leaf.entries[-1] = (code, len(idx.ctx.segments) + 7)


def _qedge_of_a_segment_elsewhere(idx):
    leaf, code = _last_entry(idx)
    rect = next(
        idx.rect_of(b) for b in idx.root.iter_leaves() if idx.code_of(b) == code
    )
    table = idx.ctx.segments
    leaf.entries[-1] = (
        code,
        next(i for i in table.iter_ids() if not table.peek(i).intersects_rect(rect)),
    )


def _qedge_dropped_from_a_block(idx):
    rects = {idx.code_of(b): idx.rect_of(b) for b in idx.root.iter_leaves()}
    leaves = [leaf for _, leaf in _btree_leaves(idx)]
    copies = Counter(seg_id for leaf in leaves for _, seg_id in leaf.entries)
    elsewhere = {seg_id for seg_id, n in copies.items() if n > 1}
    leaf = leaves[0]
    del leaf.entries[
        next(
            i
            for i, (code, seg_id) in enumerate(leaf.entries)
            if _must_hold(idx.ctx.segments, seg_id, rects[code], elsewhere)
        )
    ]


def _underfull_btree_leaf(idx):
    pid, leaf = _btree_leaves(idx)[-1]
    del leaf.entries[1:]
    return pid


def _inventory_page_never_allocated(idx):
    idx._page_ids.add(99_999)
    return 99_999


def _allocated_page_on_the_free_list(idx):
    pid = _leaf_under_root(idx)[1]
    idx.ctx.disk._free_ids.append(pid)
    return pid


def _page_nobody_owns(idx):
    return idx.ctx.disk.allocate(RTreeNode(is_leaf=True))


#: ``(rule, structure, damage)``: the damage function corrupts a freshly
#: built index in one way and returns the page the rule must anchor its
#: finding to (``None`` for a whole-structure rule).
CORRUPTIONS = [
    (RS03, "R*", _underfull_leaf),
    (RS04, "R*", _taller_than_it_is),
    (RS05, "R*", _miscounted_entries),
    (RX02, "R+", _child_region_escaping_the_world),
    (RX04, "R+", _leaf_entry_outside_its_region),
    (RX05, "R+", _segment_dropped_from_a_leaf),
    (RX06, "R+", _miscounted_rplus_entries),
    (RX07, "R+", _freed_leaf),
    (RX08, "R+", _capacity_below_a_leaf),
    (PM02, "PMR", _block_below_max_depth),
    (PM03, "PMR", _bucket_over_the_bound),
    (PM04, "PMR", _directory_overcounts),
    (PM05, "PMR", _btree_overcounts),
    (PM06, "PMR", _qedge_pointing_off_the_table),
    (PM07, "PMR", _qedge_of_a_segment_elsewhere),
    (PM08, "PMR", _qedge_dropped_from_a_block),
    (PM09, "PMR", _underfull_btree_leaf),
    (FS01, "R*", _inventory_page_never_allocated),
    (FS02, "R*", _allocated_page_on_the_free_list),
    (FS06, "R*", _page_nobody_owns),
]

#: The rules whose corruption case is one of the single tests above.
SINGLE_CASES = {RS01, RS02, RS06, FS03, FS04, FS05, RX01, RX03, PM01}


@pytest.mark.parametrize(
    "rule,kind,damage", CORRUPTIONS, ids=[f"{r}-{k}" for r, k, _ in CORRUPTIONS]
)
def test_each_rule_fires_on_its_corruption(rule, kind, damage):
    idx = build(kind)
    anchor = damage(idx)
    findings = check_index(idx)
    hits = findings_for(findings, rule)
    assert hits, [f.to_dict() for f in findings]
    if anchor is not None:
        assert any(f.page_id == anchor for f in hits), [f.to_dict() for f in hits]
    # check_invariants() is the same verdict, spelled for the tests.
    if has_errors(findings):
        with pytest.raises(AssertionError, match=rule):
            idx.check_invariants()
    else:
        idx.check_invariants()  # warnings pass


def test_every_index_and_storage_rule_has_a_corruption_case():
    checked = re.compile(r"RS|RX|PM|GR|FS0[1-6]")
    owed = {rule for rule in FSCK_RULES.rules if checked.match(rule)}
    assert owed == SINGLE_CASES | {rule for rule, _, _ in CORRUPTIONS}


# ----------------------------------------------------------------------
# Corruption injection: the persisted PMR block directory
# ----------------------------------------------------------------------
def _pmr_snapshot(tmp_path):
    path = tmp_path / "pmr.snap"
    save_index(build("PMR"), path)
    return path


def _directory(path):
    """``(bytes, decoded root)`` of a PMR snapshot's block directory."""
    manifest = snapshot_info(path)
    data = base64.b64decode(manifest["blocks"])
    return data, decode_directory(data, manifest["params"]["max_depth"])


def _store_directory(path, blocks):
    """Put ``blocks`` (bytes, or any raw JSON value) in the manifest."""
    if isinstance(blocks, (bytes, bytearray)):
        blocks = base64.b64encode(bytes(blocks)).decode("ascii")
    edit_header(path, lambda header: header["manifest"].update(blocks=blocks))


def _with_byte(data, at, tag):
    return data[:at] + bytes([tag]) + data[at + 1 :]


def _first(data, wanted):
    return next(i for i, tag in enumerate(data) if wanted(tag))


#: name -> directory bytes -> what a damaged file holds in their place.
UNREADABLE_DIRECTORIES = {
    "bad-base64": lambda data: "!" + base64.b64encode(data).decode("ascii"),
    "not-a-string": lambda data: {"d": 0, "x": 0, "y": 0, "c": 0},
    "empty": lambda data: b"",
    "truncated": lambda data: data[:-3],
    "trailing-byte": lambda data: data + b"\x00",
    # Each makes the bytes promise more blocks, or fewer, than they hold.
    "leaf-turned-split": lambda data: _with_byte(
        data, _first(data, lambda tag: tag < WIDE), SPLIT
    ),
    "split-turned-leaf": lambda data: _with_byte(
        data, _first(data, lambda tag: tag == SPLIT), 0
    ),
    "wide-count-cut-short": lambda data: data[:-1] + bytes([WIDE, 1, 0]),
}


@pytest.mark.parametrize("damage", sorted(UNREADABLE_DIRECTORIES))
def test_unreadable_directory_is_one_fs01_not_a_traceback(damage, tmp_path):
    path = _pmr_snapshot(tmp_path)
    _store_directory(path, UNREADABLE_DIRECTORIES[damage](_directory(path)[0]))
    findings = check_snapshot(path)
    assert [f.rule for f in findings] == [FS01], [f.to_dict() for f in findings]
    with pytest.raises(SnapshotError, match=FS01) as refused:
        open_index(path)
    assert findings[0].detail in str(refused.value)


def test_directory_split_at_max_depth_is_fs01(tmp_path):
    """A split at ``max_depth`` would have children below it: make the
    deepest leaf one, in a file whose ``max_depth`` is that leaf's depth."""
    path = _pmr_snapshot(tmp_path)
    data, root = _directory(path)
    leaves = list(root.iter_leaves())
    deepest = max(leaves, key=lambda block: block.depth)
    # No WIDE leaf in the lattice map, so a block is a byte: the n-th
    # leaf is the n-th non-SPLIT byte.
    at = [i for i, tag in enumerate(data) if tag != SPLIT][leaves.index(deepest)]
    _store_directory(path, data[:at] + bytes([SPLIT, 0, 0, 0, 0]) + data[at + 1 :])
    edit_header(
        path, lambda header: header["manifest"]["params"].update(max_depth=deepest.depth)
    )
    findings = check_snapshot(path)
    assert [f.rule for f in findings] == [FS01], [f.to_dict() for f in findings]
    assert f"max_depth {deepest.depth}" in findings[0].detail


def test_flipped_leaf_count_is_pm04_naming_the_block(tmp_path):
    path = _pmr_snapshot(tmp_path)
    data, root = _directory(path)
    at = _first(data, lambda tag: 0 < tag < WIDE - 1)
    _store_directory(path, _with_byte(data, at, data[at] + 1))
    (block,) = [
        after
        for before, after in zip(root.iter_leaves(), _directory(path)[1].iter_leaves())
        if before.count != after.count
    ]
    findings = check_snapshot(path)
    assert rules_of(findings) == {PM04}
    assert [f.path for f in findings] == [f"({block.depth},{block.bx},{block.by})"]
    open_index(path)  # opens: the deep walk is check's alone


def test_split_block_persisted_as_a_leaf_is_caught_naming_the_block(tmp_path):
    """``0xFF`` and its four leaves rewritten as one leaf is still one
    well-formed tree: only the cross-check against the B-tree can tell."""
    path = _pmr_snapshot(tmp_path)
    data, root = _directory(path)
    stack = [root]
    while stack:
        block = stack.pop()
        if block.children is not None and all(c.is_leaf for c in block.children):
            break
        stack.extend(block.children or ())
    total = sum(child.count for child in block.children)
    assert 0 < total < WIDE
    block.merge()
    block.count = total
    damaged = encode_directory(root)
    assert len(damaged) == len(data) - 4
    _store_directory(path, damaged)
    findings = check_snapshot(path)
    assert {PM02, PM04} <= rules_of(findings)  # orphaned keys; a wrong count
    where = f"({block.depth},{block.bx},{block.by})"
    assert where in {f.path for f in findings_for(findings, PM04)}


# ----------------------------------------------------------------------
# The service hook: engine.check() and {"op": "check"}
# ----------------------------------------------------------------------
def test_engine_check_clean_and_after_corruption():
    idx = build("R*")
    engine = QueryEngine(idx)
    assert engine.check() == {"clean": True, "findings": []}

    root = _internal_root(idx)
    rect, child = root.entries[0]
    root.entries[0] = (
        Rect(rect.xmin - 5, rect.ymin - 5, rect.xmax + 5, rect.ymax + 5),
        child,
    )
    out = engine.check()
    assert out["clean"] is False
    assert RS02 in {f["rule"] for f in out["findings"]}
    assert any(f["page_id"] == child for f in out["findings"] if f["rule"] == RS02)


def test_server_check_op_round_trip():
    engine = QueryEngine(build("PMR"))
    server = MapServer(engine, port=0)
    server.start_background()
    try:
        response = send_request(server.address, {"op": "check"})
    finally:
        server.shutdown()
        server.server_close()
    assert response["ok"] is True
    assert response["result"] == {"clean": True, "findings": []}


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_check_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "cli.snap"
    save_index(build("R+"), path)
    assert main(["check", str(path)]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out

    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"not a snapshot")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.snap")]) == 2


def test_has_errors_distinguishes_warnings():
    from repro.analysis.findings import error, warning

    assert not has_errors([warning("RX08", 1, "", "overfull")])
    assert has_errors([warning("RX08", 1, "", "x"), error("RS01", 2, "", "y")])
