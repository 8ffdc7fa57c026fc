"""Static integrity checks for the paper's R+-tree (k-d-B hybrid).

Section 3 of Hoel & Samet: non-leaf entries carry raw *partition*
rectangles -- pairwise disjoint and tiling the parent region exactly --
while minimum bounding rectangles appear only in the leaves, and a
segment is stored in **every** leaf whose region a positive-length piece
of it crosses. All reads go through ``DiskManager.peek``: no queries, no
buffer-pool traffic, no counter movement.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.findings import FSCK_RULES, Finding, error, warning
from repro.analysis.fsck_rtree import walk_pages
from repro.analysis.fsck_storage import check_segment_refs, check_tally
from repro.geometry import Rect

RX01 = FSCK_RULES.register("RX01", "sibling partition regions overlap")
RX02 = FSCK_RULES.register("RX02", "child region escapes its parent region")
RX03 = FSCK_RULES.register("RX03", "child regions do not cover the parent region")
RX04 = FSCK_RULES.register("RX04", "leaf entry MBR disjoint from the leaf region")
RX05 = FSCK_RULES.register(
    "RX05", "segment missing from a leaf whose region it crosses"
)
RX06 = FSCK_RULES.register("RX06", "page inventory / entry count bookkeeping mismatch")
RX07 = FSCK_RULES.register("RX07", "tree references a page missing from disk")
RX08 = FSCK_RULES.register("RX08", "leaf overfull beyond its page capacity")

#: Relative tolerance for the area-coverage test.
_COVER_TOL = 1e-6


def check_rplus(index) -> List[Finding]:
    """Verify an R+-tree's disjoint decomposition; returns findings."""
    findings: List[Finding] = []
    leaf_entry_total = 0
    seg_ids: Set[int] = set()
    for page_id, here, node, region in walk_pages(
        index, "rplus", index.extent(), RX06, RX07, RX06, findings
    ):

        def flag(rule: str, detail: str) -> None:
            findings.append(error(rule, page_id, here, detail))

        entries = node.entries
        if node.is_leaf:
            leaf_entry_total += len(entries)
            ids_here = [ref for _, ref in entries]
            if len(ids_here) != len(set(ids_here)):
                flag(RX06, "duplicate segment entry in one leaf")
            seg_ids.update(ids_here)
            if len(entries) > index.capacity:
                # Documented pathological case: a leaf whose segments all
                # cross every candidate split line stays overfull and is
                # charged overflow pages -- tolerated, but surfaced.
                detail = f"{len(entries)} entries > capacity {index.capacity}"
                findings.append(
                    warning(RX08, page_id, here, f"{detail} (unsplittable leaf)")
                )
            for rect, ref in entries:
                if not rect.intersects(region):
                    detail = f"MBR {tuple(rect)} disjoint from leaf {tuple(region)}"
                    flag(RX04, f"entry for segment {ref} has {detail}")
            continue
        area = 0.0
        for i, (rect, child) in enumerate(entries):
            if not region.contains_rect(rect):
                detail = f"child region {tuple(rect)} escapes parent {tuple(region)}"
                flag(RX02, detail)
            area += rect.area()
            for rect2, child2 in entries[i + 1 :]:
                if rect.overlap_area(rect2) > 0:
                    pair = f"{tuple(rect)} (page {child}), {tuple(rect2)} ({child2})"
                    flag(RX01, f"sibling regions overlap: {pair}")
        if abs(area - region.area()) > _COVER_TOL * max(region.area(), 1.0):
            detail = f"child regions cover area {area:g} of {region.area():g}"
            flag(RX03, detail)

    findings += check_tally(RX06, leaf_entry_total, index.entry_count(), "leaf entries")
    findings += check_tally(
        RX06, len(seg_ids), index.segment_count(), "distinct segments"
    )
    findings.extend(_check_completeness(index, seg_ids))
    return findings + check_segment_refs(index, seg_ids)


def _check_completeness(index, seg_ids: Set[int]) -> List[Finding]:
    """Every segment must appear in every leaf a positive-length piece of
    it crosses (boundary grazing may legitimately land in a neighbour)."""
    disk = index.ctx.disk
    table = index.ctx.segments
    findings: List[Finding] = []

    def descend(page_id: int, region: Rect, seg, seg_id: int) -> None:
        if not disk.is_allocated(page_id):
            return  # already reported as RX07 by the structural walk
        node = disk.peek(page_id)
        if not node.is_leaf:
            for rect, child in node.entries:
                if seg.intersects_rect(rect):
                    descend(child, rect, seg, seg_id)
            return
        piece = seg.clipped(region)
        if piece is None or piece.is_degenerate():
            return
        if not any(ref == seg_id for _, ref in node.entries):
            detail = f"segment {seg_id} crosses leaf region {tuple(region)}"
            findings.append(
                error(RX05, page_id, str(page_id), f"{detail} but is not stored there")
            )

    for seg_id in sorted(seg_ids):
        if not 0 <= seg_id < len(table):
            continue  # dangling pointer: reported by the storage checks
        descend(index.root_id, index.extent(), table.peek(seg_id), seg_id)
    return findings
