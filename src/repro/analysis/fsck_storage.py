"""Storage-level integrity checks: inventories, free list, segment table.

SQLite's ``PRAGMA integrity_check`` equivalent for the simulated disk:
every page the index claims must exist, every freed page must be truly
unreferenced, every allocated page must belong to exactly one inventory,
and the segment table must actually hold the segments the structures
point at.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.analysis.findings import FSCK_RULES, Finding, error, warning

FS01 = FSCK_RULES.register("FS01", "manifest inventory disagrees with disk pages")
FS02 = FSCK_RULES.register("FS02", "free-list page id is still allocated")
FS03 = FSCK_RULES.register("FS03", "free-list page id is referenced by an inventory")
FS04 = FSCK_RULES.register("FS04", "dangling segment-table pointer")
FS05 = FSCK_RULES.register("FS05", "segment table inconsistent with its pages")
FS06 = FSCK_RULES.register("FS06", "allocated page belongs to no inventory (leak)")


def _check_page_books(
    allocated: Set[int], free: Set[int], owners: Dict[str, Set[int]]
) -> List[Finding]:
    """FS01..FS03, stated once, for a live disk (:func:`check_storage`)
    and for a snapshot header before anything is loaded."""
    findings: List[Finding] = []
    for pid in sorted(free & allocated):
        findings.append(
            error(FS02, pid, "free-list", "page is both freed and allocated")
        )
    for owner, pages in owners.items():
        for pid in sorted(pages & free):
            findings.append(
                error(FS03, pid, owner, f"freed page is referenced by {owner}")
            )
        for pid in sorted(pages - allocated - free):
            findings.append(
                error(FS01, pid, owner, f"{owner} inventory page is not on disk")
            )
    return findings


def check_storage(index) -> List[Finding]:
    """Verify the disk-level bookkeeping under a live index."""
    disk = index.ctx.disk
    allocated = set(disk.allocated_ids())
    owners = index.page_inventories()
    findings = _check_page_books(allocated, set(disk.free_ids()), owners)

    referenced: Set[int] = set()
    for pages in owners.values():
        referenced |= pages
    for pid in sorted(allocated - referenced):
        findings.append(
            warning(FS06, pid, "disk", "allocated page belongs to no inventory")
        )

    findings.extend(_check_segment_table(index.ctx))
    return findings


def _check_segment_table(ctx) -> List[Finding]:
    table = ctx.segments
    disk = ctx.disk
    findings: List[Finding] = []
    count = len(table)
    per_page = table.per_page
    pages = table.page_ids
    if count > len(pages) * per_page:
        findings.append(
            error(
                FS05,
                None,
                "segments",
                f"{count} segments cannot fit in {len(pages)} pages of "
                f"{per_page} records (table truncated)",
            )
        )
    stored = 0
    for i, pid in enumerate(pages):
        if not disk.is_allocated(pid):
            findings.append(
                error(FS05, pid, "segments", "segment-table page is not on disk")
            )
            continue
        payload = disk.peek(pid)
        if not isinstance(payload, list):
            findings.append(
                error(
                    FS05,
                    pid,
                    "segments",
                    f"segment-table page holds {type(payload).__name__}, not a "
                    f"record list",
                )
            )
            continue
        stored += len(payload)
        expected = per_page if i < len(pages) - 1 else count - per_page * i
        if len(payload) < expected:
            findings.append(
                error(
                    FS05,
                    pid,
                    "segments",
                    f"segment-table page holds {len(payload)} records, "
                    f"bookkeeping expects {expected}",
                )
            )
    if stored < count:
        findings.append(
            error(
                FS05,
                None,
                "segments",
                f"segment table stores {stored} records but claims {count}",
            )
        )
    return findings


def check_inventory(rule: str, reachable: Set[int], tracked: Set[int]) -> List[Finding]:
    """The pages a structure walk reached against the ones its owner lists."""
    if reachable == tracked:
        return []
    detail = (
        f"page inventory mismatch: reachable-but-untracked "
        f"{sorted(reachable - tracked)[:8]}, tracked-but-unreachable "
        f"{sorted(tracked - reachable)[:8]}"
    )
    return [error(rule, None, "", detail)]


def check_tally(rule: str, counted: int, claimed: int, what: str) -> List[Finding]:
    """A count an index walk made against the one the index keeps."""
    if counted == claimed:
        return []
    return [error(rule, None, "", f"{counted} {what} but bookkeeping says {claimed}")]


def check_segment_refs(index, refs, rule: str = FS04) -> List[Finding]:
    """Range-check segment ids referenced by an index's leaf entries."""
    table = index.ctx.segments
    findings: List[Finding] = []
    for seg_id in sorted(set(refs)):
        if not isinstance(seg_id, int) or not 0 <= seg_id < len(table):
            findings.append(
                error(
                    rule,
                    None,
                    index.name,
                    f"leaf entry references segment {seg_id!r}, table holds "
                    f"0..{len(table) - 1}",
                )
            )
    return findings


def check_snapshot_header(header: Dict[str, Any]) -> List[Finding]:
    """The rules a snapshot file must pass to be opened, on its raw JSON
    header (no page decoding): the one format and a manifest this code
    can bind (FS01 otherwise), and :func:`_check_page_books` over the
    page table, the persisted free list and the manifest's inventories.
    """
    from repro.core import STRUCTURES
    from repro.service.snapshot import MANIFEST_VERSION
    from repro.storage.codec import FORMAT

    manifest = header.get("manifest")
    unbindable = None
    if header.get("format") != FORMAT:
        unbindable = (
            f"snapshot is format {header.get('format')!r}, this build reads "
            f"format {FORMAT} only: write it again (`snapshot`, or re-create "
            f"the store) with this build"
        )
    elif not isinstance(manifest, dict):
        unbindable = (
            "snapshot has no index manifest (written by dump_database "
            "rather than save_index?)"
        )
    elif manifest.get("version") != MANIFEST_VERSION:
        unbindable = f"unsupported manifest version {manifest.get('version')!r}"
    elif manifest.get("kind") not in STRUCTURES:
        unbindable = f"unknown index kind {manifest.get('kind')!r} in manifest"
    if unbindable is not None:
        return [error(FS01, None, "header", unbindable)]
    # Every manifest section that lists page ids is an inventory: the
    # segment table's, and whichever the index's ``state()`` declared.
    owners = {
        name: set(section["page_ids"])
        for name, section in manifest.items()
        if isinstance(section, dict) and "page_ids" in section
    }
    page_ids = {page_id for page_id, _, _ in header["pages"]}
    return _check_page_books(page_ids, set(header.get("free_ids", [])), owners)
