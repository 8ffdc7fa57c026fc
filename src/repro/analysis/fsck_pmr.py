"""Static integrity checks for the PMR quadtree's linear representation.

The paper stores the PMR quadtree as Morton-ordered ``(L, O)`` 2-tuples
in a paged B-tree (Section 4). The checker verifies the three layers of
that representation against each other without executing a single query:

* the **B-tree** itself -- sorted keys, tight separators, uniform leaf
  depth, a leaf chain matching tree order, page accounting;
* the **locational codes** -- every stored key is exactly the code of one
  *leaf* block of the directory, computed from that block's geometry;
* the **splitting rule** -- a block is split at most once past the
  threshold, so a leaf above ``max_depth`` never holds more than
  ``threshold + depth`` q-edges (Section 3's occupancy bound, stated by
  the index's ``block_is_legal``);
* **completeness** -- a segment is stored in every leaf block a
  positive-length piece of it crosses.

:func:`check_btree` is the first layer alone: ``BPlusTree.check_invariants``
runs it on its own tree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.analysis.findings import FSCK_RULES, Finding, error
from repro.analysis.fsck_storage import check_inventory, check_tally

PM01 = FSCK_RULES.register("PM01", "B-tree keys out of Morton order")
PM02 = FSCK_RULES.register("PM02", "locational code inconsistent with block geometry")
PM03 = FSCK_RULES.register("PM03", "leaf block violates the decomposition rule")
PM04 = FSCK_RULES.register(
    "PM04", "directory or segment count disagrees with B-tree contents"
)
PM05 = FSCK_RULES.register("PM05", "B-tree structural damage")
PM06 = FSCK_RULES.register("PM06", "q-edge pointer outside the segment table")
PM07 = FSCK_RULES.register("PM07", "q-edge stored in a block its segment misses")
PM08 = FSCK_RULES.register("PM08", "segment missing from a block it crosses")
PM09 = FSCK_RULES.register("PM09", "B-tree node occupancy outside its bounds")


def check_pmr(index) -> List[Finding]:
    """Verify a PMR quadtree snapshot/in-memory instance; returns findings."""
    findings: List[Finding] = []
    entries = check_btree(index.btree, findings)
    blocks = _check_directory(index, findings)
    _check_codes(index, entries, blocks, findings)
    return findings


# ----------------------------------------------------------------------
# Layer 1: the paged B-tree
# ----------------------------------------------------------------------
def check_btree(btree, findings: List[Finding]) -> List[Tuple[Any, Any]]:
    """Structural walk via ``disk.peek``; returns entries in chain order."""
    disk = btree.pool.disk
    seen: Set[int] = set()
    leaves_in_tree_order: List[int] = []

    def flag(rule: str, page_id, detail: str) -> None:
        where = "" if page_id is None else str(page_id)
        findings.append(error(rule, page_id, where, detail))

    def walk(page_id: int, depth: int, lo, hi) -> int:
        if page_id in seen:
            flag(PM05, page_id, "page reachable via two parents")
            return 0
        seen.add(page_id)
        if not disk.is_allocated(page_id):
            flag(PM05, page_id, "referenced page not allocated")
            return 0
        node = disk.peek(page_id)
        is_root = page_id == btree.root_id
        if node.is_leaf:
            n, capacity = len(node.entries), btree.leaf_capacity
            floor = 0 if is_root else btree.min_leaf()
            if depth != btree.height:
                flag(PM05, page_id, f"leaf at depth {depth}, height {btree.height}")
            if node.entries != sorted(node.entries):
                flag(PM01, page_id, "leaf entries out of order")
            for e in node.entries:
                if lo is not None and e < lo:
                    flag(PM01, page_id, f"entry {e!r} below its lower separator {lo!r}")
                if hi is not None and e >= hi:
                    flag(
                        PM01,
                        page_id,
                        f"entry {e!r} at or above its upper separator {hi!r}",
                    )
            leaves_in_tree_order.append(page_id)
            total = n
        elif len(node.children) != len(node.keys) + 1:
            arity = f"{len(node.keys)} keys but {len(node.children)} children"
            flag(PM05, page_id, arity)
            return 0
        else:
            # A root left with a single child would have been collapsed.
            n, capacity = len(node.children), btree.internal_capacity
            floor = 2 if is_root else btree.min_internal()
            if node.keys != sorted(node.keys):
                flag(PM05, page_id, "separators out of order")
            total = 0
            for i, child in enumerate(node.children):
                child_lo = lo if i == 0 else node.keys[i - 1]
                child_hi = hi if i == len(node.keys) else node.keys[i]
                total += walk(child, depth + 1, child_lo, child_hi)
        if not floor <= n <= capacity:
            flag(PM09, page_id, f"{n} entries outside [{floor}, {capacity}]")
        return total

    if not disk.is_allocated(btree.root_id):
        findings.append(
            error(PM05, btree.root_id, "", "B-tree root page is not allocated")
        )
        return []
    total = walk(btree.root_id, 1, None, None)

    findings += check_inventory(PM05, seen, btree.page_ids)
    findings += check_tally(PM05, total, len(btree), "entries in leaves")

    # Leaf chain: follow next_page from the leftmost leaf and collect the
    # entries; the chain must visit exactly the tree's leaves in order.
    entries: List[Tuple[Any, Any]] = []
    chain: List[int] = []
    page_id = btree.root_id
    node = disk.peek(page_id)
    while not node.is_leaf:
        if not node.children or not disk.is_allocated(node.children[0]):
            return entries
        page_id = node.children[0]
        node = disk.peek(page_id)
    while True:
        chain.append(page_id)
        entries.extend(node.entries)
        if node.next_page is None:
            break
        if len(chain) > len(seen) + 1:
            flag(PM05, page_id, "leaf chain cycles")
            break
        page_id = node.next_page
        if not disk.is_allocated(page_id):
            flag(PM05, page_id, "leaf chain points off-disk")
            break
        node = disk.peek(page_id)
    if not findings and chain != leaves_in_tree_order:
        flag(PM05, None, "leaf chain does not match tree order")
    for prev, cur in zip(entries, entries[1:]):
        if cur <= prev:
            flag(
                PM01,
                None,
                f"adjacent entries {prev!r} >= {cur!r} break strict Morton order",
            )
    return entries


# ----------------------------------------------------------------------
# Layer 2: the block directory
# ----------------------------------------------------------------------
def _where(block) -> str:
    return f"({block.depth},{block.bx},{block.by})"


def _check_directory(index, findings: List[Finding]) -> Dict[int, Any]:
    """Geometry walk of the in-memory directory; returns code -> leaf."""
    blocks: Dict[int, Any] = {}

    def walk(block) -> None:
        def flag(detail: str) -> None:
            findings.append(error(PM02, None, _where(block), detail))

        grid = 1 << block.depth
        if block.depth > index.max_depth:
            flag(f"block deeper than max_depth {index.max_depth}")
        elif not (0 <= block.bx < grid and 0 <= block.by < grid):
            flag("block grid position outside its depth's grid")
        elif block.is_leaf:
            code = index.code_of(block)
            if code in blocks:
                flag(f"two leaf blocks share locational code {code}")
            blocks[code] = block
        elif len(block.children) != 4:
            flag(f"split block has {len(block.children)} children")
        else:
            expected = {
                (block.depth + 1, 2 * block.bx + dx, 2 * block.by + dy)
                for dx in (0, 1)
                for dy in (0, 1)
            }
            actual = {(c.depth, c.bx, c.by) for c in block.children}
            if actual != expected:
                flag(f"children at {sorted(actual)} instead of {sorted(expected)}")
            for child in block.children:
                walk(child)

    walk(index.root)
    return blocks


# ----------------------------------------------------------------------
# Layer 3: codes vs. geometry vs. contents
# ----------------------------------------------------------------------
def _check_codes(
    index, entries, blocks: Dict[int, Any], findings: List[Finding]
) -> None:
    table = index.ctx.segments
    stored: Dict[int, int] = {}  # code -> entries under it
    held: Dict[int, List[int]] = {}  # code -> the valid segment ids among them

    def flag(rule: str, block, detail: str) -> None:
        where = "" if block is None else _where(block)
        findings.append(error(rule, None, where, detail))

    for key, value in entries:
        if not isinstance(key, int):
            flag(PM02, None, f"non-integer locational code {key!r}")
            continue
        stored[key] = stored.get(key, 0) + 1
        block = blocks.get(key)
        if block is None:
            flag(PM02, None, f"B-tree key {key} matches no leaf block of the directory")
            continue
        seg_id = index.seg_id_of(value)
        if not isinstance(seg_id, int) or not 0 <= seg_id < len(table):
            detail = f"q-edge pointer {seg_id!r} outside the segment table"
            flag(PM06, block, f"{detail} (0..{len(table) - 1})")
            continue
        held.setdefault(key, []).append(seg_id)
        if not table.peek(seg_id).intersects_rect(index.rect_of(block)):
            flag(PM07, block, f"segment {seg_id} does not intersect its block")
    for code, block in blocks.items():
        if stored.get(code, 0) != block.count:
            detail = f"directory says {block.count} q-edges, B-tree holds"
            flag(PM04, block, f"{detail} {stored.get(code, 0)}")
        # A block at max_depth can never split, so no rule binds it.
        if block.depth < index.max_depth and not index.block_is_legal(block):
            detail = f"{block.count} q-edges may not share an unsplit {index.name}"
            flag(PM03, block, f"{detail} block (threshold {index.threshold})")
    seg_ids = {seg_id for ids in held.values() for seg_id in ids}
    findings += check_tally(
        PM04, len(seg_ids), index.segment_count(), "distinct segments"
    )

    # Completeness: every segment lives in every leaf block a
    # positive-length piece of it crosses (grazing a block at a boundary
    # point may legitimately land in the neighbour). Descend only into
    # blocks the geometry touches, so the check stays near-linear at the
    # paper's scale.
    def descend(block, seg, seg_id: int) -> None:
        rect = index.rect_of(block)
        if not seg.intersects_rect(rect):
            return
        if block.children is not None:
            for child in block.children:
                descend(child, seg, seg_id)
            return
        piece = seg.clipped(rect)
        if piece is None or piece.is_degenerate():
            return
        if seg_id not in held.get(index.code_of(block), ()):
            flag(PM08, block, f"segment {seg_id} crosses the block, is not stored")

    for seg_id in sorted(seg_ids):
        descend(index.root, table.peek(seg_id), seg_id)
