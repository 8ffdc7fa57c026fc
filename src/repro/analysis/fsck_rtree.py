"""Static integrity checks for the R-tree family (R and R*).

The paper's R*-tree invariants (Section 2 and the Beckmann et al.
definition): every child's MBR is contained in -- and exactly equal to --
the rectangle its parent entry advertises, node occupancy stays within
``[m, M]`` (root exempt), and all leaves sit at the same depth. The walk
reads pages through :meth:`~repro.storage.disk.DiskManager.peek`, so a
check never executes queries, never faults the buffer pool, and never
moves a counter.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.findings import FSCK_RULES, Finding, error, warning
from repro.analysis.fsck_storage import (
    check_inventory,
    check_segment_refs,
    check_tally,
)

RS01 = FSCK_RULES.register("RS01", "child MBR not contained in its parent entry")
RS02 = FSCK_RULES.register("RS02", "parent entry rectangle is not the tight MBR")
RS03 = FSCK_RULES.register("RS03", "node occupancy outside [min_entries, capacity]")
RS04 = FSCK_RULES.register("RS04", "leaf at non-uniform depth")
RS05 = FSCK_RULES.register("RS05", "page inventory / entry count bookkeeping mismatch")
RS06 = FSCK_RULES.register("RS06", "tree references a page missing from disk")


def walk_pages(index, kind: str, root_rect, shared, missing, uneven, findings):
    """Every reachable, allocated page of a ``(rect, ref)`` tree, parents
    first, as ``(page_id, path, node, rect)`` -- ``rect`` being what the
    parent's entry says of the page (``root_rect`` for the root).

    Reachability itself is judged here, for the R-trees and the R+-tree
    alike, under the caller's rule ids: a page with two parents or an
    inventory that is not exactly the reachable set (``shared``), a
    reference off the disk (``missing``), a leaf off the tree's one leaf
    level (``uneven``). Exhaust the generator to get all of them.
    """
    disk = index.ctx.disk
    height = index.height()
    seen: Set[int] = set()
    stack = [(index.root_id, 1, root_rect, "")]
    while stack:
        page_id, depth, rect, path = stack.pop()
        here = f"{path}/{page_id}" if path else str(page_id)

        def flag(rule: str, detail: str) -> None:
            findings.append(error(rule, page_id, here, detail))

        if page_id in seen:
            flag(shared, "page reachable via two parents")
            continue
        seen.add(page_id)
        if not disk.is_allocated(page_id):
            flag(missing, "referenced page is not allocated")
            continue
        node = disk.peek(page_id)
        if not node.is_leaf:
            stack.extend(
                (child, depth + 1, r, here) for r, child in reversed(node.entries)
            )
        elif depth != height:
            flag(uneven, f"leaf at depth {depth}, tree height {height}")
        yield page_id, here, node, rect
    findings += check_inventory(shared, seen, index.page_inventories()[kind])


def check_rtree(index) -> List[Finding]:
    """Verify an R / R* tree; returns findings (empty when healthy)."""
    findings: List[Finding] = []
    leaf_refs: List[int] = []
    for page_id, here, node, parent_rect in walk_pages(
        index, "rtree", None, RS05, RS06, RS04, findings
    ):
        n = len(node.entries)
        if page_id != index.root_id:
            floor = index.min_entries
        else:
            floor = 0 if node.is_leaf else 2
        if not floor <= n <= index.capacity:
            detail = f"{n} entries outside [{floor}, {index.capacity}]"
            findings.append(error(RS03, page_id, here, detail))
        if node.entries and parent_rect is not None:
            mbr = node.mbr()
            if not parent_rect.contains_rect(mbr):
                detail = f"MBR {tuple(mbr)} escapes parent entry {tuple(parent_rect)}"
                findings.append(error(RS01, page_id, here, detail))
            elif parent_rect != mbr:
                detail = f"parent entry {tuple(parent_rect)} looser than {tuple(mbr)}"
                findings.append(error(RS02, page_id, here, detail))
        if node.is_leaf:
            leaf_refs.extend(ref for _, ref in node.entries)
    findings += check_tally(RS05, len(leaf_refs), index.entry_count(), "leaf entries")
    if len(leaf_refs) != len(set(leaf_refs)):
        findings.append(
            warning(RS05, None, "", "duplicate segment reference across leaves")
        )
    return findings + check_segment_refs(index, leaf_refs)
