"""Static integrity checks for the uniform grid (Section 2, Figure 1).

The grid keeps ``(cell Morton index, segment pointer)`` tuples in the
same paged B-tree as the PMR quadtree, so the B-tree rules are
:func:`~repro.analysis.fsck_pmr.check_btree`'s; what is the grid's own
is cell membership: a segment is registered in every cell it crosses.
Peek-only, like every fsck walk.
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import FSCK_RULES, Finding, error
from repro.analysis.fsck_pmr import check_btree
from repro.analysis.fsck_storage import check_segment_refs, check_tally
from repro.core.pmr.locational import interleave

GR01 = FSCK_RULES.register("GR01", "segment missing from a grid cell it crosses")
GR02 = FSCK_RULES.register("GR02", "grid segment count bookkeeping mismatch")


def check_grid(index) -> List[Finding]:
    """Verify a uniform grid; returns findings (empty when healthy)."""
    findings: List[Finding] = []
    entries = set(check_btree(index.btree, findings))
    seg_ids = {seg_id for _, seg_id in entries}
    findings += check_tally(
        GR02, len(seg_ids), index.segment_count(), "distinct segments"
    )
    dangling = check_segment_refs(index, seg_ids)
    if dangling:
        return findings + dangling  # membership needs every segment's geometry
    table = index.ctx.segments
    for seg_id in sorted(seg_ids):
        cells = index.cells_of_segment(table.peek(seg_id))
        if not cells:
            findings.append(
                error(GR01, None, "", f"segment {seg_id} crosses no cell of the grid")
            )
        for cx, cy in cells:
            if (interleave(cx, cy), seg_id) not in entries:
                findings.append(
                    error(
                        GR01,
                        None,
                        f"({cx},{cy})",
                        f"segment {seg_id} crosses the cell but is not stored there",
                    )
                )
    return findings
