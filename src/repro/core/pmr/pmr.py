"""The PMR quadtree (Nelson & Samet), as implemented in QUILT.

Edge-based bucket quadtree with the probabilistic splitting rule:

* a segment is inserted into every leaf block it intersects;
* any affected block whose occupancy then *exceeds* the splitting
  threshold is split **once, and only once** into four equal blocks
  (children above the threshold do not split until a later insertion
  touches them);
* deletion removes the segment from every block it intersects, and a
  split block whose children are all leaves holding fewer distinct
  segments than the threshold is merged back, recursively.

Storage is the paper's linear quadtree: each q-edge is an ``(L, O)``
2-tuple in a paged B-tree keyed on the Morton locational code ``L`` (8
bytes per tuple, about 120 per 1 KiB page). The in-memory block directory
(:mod:`repro.core.pmr.blocks`) only navigates; every entry access goes
through the B-tree and is therefore charged for disk activity.

``store_bboxes=True`` builds the Section 6 variant that keeps a compressed
per-segment bounding box in each tuple (12 bytes), trading storage for
fewer segment comparisons; it is exercised by the ablation benchmarks.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Set

from repro.btree import BPlusTree, ScanStats
from repro.core.interface import WORLD_DEPTH, WORLD_SIZE, NNItem, SpatialIndex, query_lower_bound
from repro.core.interface import NNQuery, SegmentQuery
from repro.core.pmr.blocks import PMRBlock, decode_directory, encode_directory
from repro.core.pmr.locational import locational_code
from repro.errors import SnapshotError
from repro.geometry import Point, Rect, Segment
from repro.obs.explain import (
    CAUSE_BTREE,
    COUNT_BLOCKS_DECODED,
    COUNT_BTREE_INTERNAL,
    COUNT_BTREE_LEAVES,
    COUNT_BTREE_SCANS,
    COUNT_NN_EXPANSIONS,
)
from repro.storage.context import StorageContext
from repro.storage.layout import (
    BTREE_INTERNAL_ENTRY_BYTES,
    BTREE_PAGE_HEADER_BYTES,
    PMR_BBOX_EXTRA_BYTES,
    PMR_TUPLE_BYTES,
    entries_per_page,
)


class PMRQuadtree(SpatialIndex):
    name = "PMR"
    #: ``store_bboxes=True`` is a constructor-only variant: a reopened
    #: tree never has it (its tuples do not serialize).
    store_bboxes = False

    def __init__(
        self,
        ctx: StorageContext,
        threshold: int = 4,
        max_depth: int = WORLD_DEPTH,
        world_size: int = WORLD_SIZE,
        store_bboxes: bool = False,
    ) -> None:
        super().__init__(ctx)
        if threshold < 1:
            raise ValueError(f"splitting threshold must be >= 1, got {threshold}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if world_size & (world_size - 1):
            raise ValueError(f"world_size must be a power of two, got {world_size}")
        self.store_bboxes = store_bboxes
        self._open(
            {
                "threshold": threshold,
                "max_depth": max_depth,
                "world_size": world_size,
            },
            None,
        )

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        return {
            "threshold": self.threshold,
            "max_depth": self.max_depth,
            "world_size": self.world_size,
        }

    def state(self) -> Dict[str, Any]:
        if self.store_bboxes:
            raise SnapshotError(
                "PMR snapshots require store_bboxes=False: the on-disk "
                "B-tree codec stores (code, pointer) 2-tuples only"
            )
        return {
            "state": {"seg_count": self._seg_count},
            "btree": self.btree.state(),
            "blocks": base64.b64encode(encode_directory(self.root)).decode("ascii"),
        }

    def _open(self, params: Dict[str, Any], state) -> None:
        self.threshold = params["threshold"]
        self.max_depth = params["max_depth"]
        self.world_size = params["world_size"]
        entry_bytes = PMR_TUPLE_BYTES + (
            PMR_BBOX_EXTRA_BYTES if self.store_bboxes else 0
        )
        capacities = (
            entries_per_page(
                self.ctx.page_size, entry_bytes, BTREE_PAGE_HEADER_BYTES
            ),
            entries_per_page(
                self.ctx.page_size, BTREE_INTERNAL_ENTRY_BYTES, BTREE_PAGE_HEADER_BYTES
            ),
        )
        if state is None:
            self.btree = BPlusTree(self.ctx.pool, *capacities)
            self.root = PMRBlock(0, 0, 0)
            self._seg_count = 0
        else:
            self.btree = BPlusTree.reopen(self.ctx.pool, *capacities, state["btree"])
            self.root = decode_directory(
                base64.b64decode(state["blocks"], validate=True), self.max_depth
            )
            self._seg_count = state["state"]["seg_count"]

    def page_inventories(self) -> Dict[str, Set[int]]:
        return {"btree": set(self.btree.page_ids), **super().page_inventories()}

    def extent(self) -> Rect:
        return Rect(0, 0, self.world_size, self.world_size)

    @classmethod
    def extent_params(cls, extent: Rect) -> Dict[str, Any]:
        return {"world_size": int(extent.width)}

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def code_of(self, block: PMRBlock) -> int:
        code = block.lcode
        if code is None:
            code = block.lcode = locational_code(
                block.bx, block.by, block.depth, self.max_depth
            )
        return code

    def rect_of(self, block: PMRBlock) -> Rect:
        return block.rect(self.world_size)

    def _value(self, seg_id: int, seg: Segment) -> Any:
        if self.store_bboxes:
            return (seg_id, tuple(seg.mbr()))
        return seg_id

    @staticmethod
    def seg_id_of(value: Any) -> int:
        return value[0] if isinstance(value, tuple) else value

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, seg_id: int) -> None:
        seg = self.ctx.segments.fetch(seg_id)
        value = self._value(seg_id, seg)
        affected: List[PMRBlock] = []
        self._insert_into(self.root, seg, value, affected)
        # The splitting rule: an affected block whose occupancy now
        # exceeds the threshold is split **once, and only once** --
        # children left above the threshold wait for the next insertion
        # that touches them. Every affected block is a distinct leaf.
        for block in affected:
            if block.count > self.threshold and block.depth < self.max_depth:
                self._split_block(block)
        self._seg_count += 1

    def _insert_into(
        self, block: PMRBlock, seg: Segment, value: Any, affected: List[PMRBlock]
    ) -> None:
        if block.children is not None:
            for child in block.children_meeting(seg, self.world_size):
                self._insert_into(child, seg, value, affected)
            return
        self.btree.insert(self.code_of(block), value)
        block.count += 1
        affected.append(block)

    def _split_block(self, block: PMRBlock) -> None:
        code = self.code_of(block)
        values = self.btree.scan_eq(code)
        for v in values:
            self.btree.delete(code, v)
        block.split()
        fetch = self.ctx.segments.fetch
        for v in values:
            seg = fetch(self.seg_id_of(v))
            for child in block.children_meeting(seg, self.world_size):
                self.btree.insert(self.code_of(child), v)
                child.count += 1

    def delete(self, seg_id: int) -> None:
        seg = self.ctx.segments.fetch(seg_id)
        value = self._value(seg_id, seg)
        removed = self._delete_from(self.root, seg, value)
        if removed == 0:
            raise KeyError(f"segment {seg_id} not in the quadtree")
        self._seg_count -= 1

    def _delete_from(self, block: PMRBlock, seg: Segment, value: Any) -> int:
        if block.children is None:
            code = self.code_of(block)
            if self.btree.contains(code, value):
                self.btree.delete(code, value)
                block.count -= 1
                return 1
            return 0
        removed = 0
        for child in block.children_meeting(seg, self.world_size):
            removed += self._delete_from(child, seg, value)
        if removed:
            self._try_merge(block)
        return removed

    def _try_merge(self, block: PMRBlock) -> None:
        """The paper's rule: merge the children back when the splitting
        threshold exceeds the distinct occupancy of the block and its
        siblings."""
        if block.children is None or not all(c.is_leaf for c in block.children):
            return
        distinct: Set[Any] = set()
        for child in block.children:
            distinct.update(self.btree.scan_eq(self.code_of(child)))
        if len(distinct) >= self.threshold:
            return
        for child in block.children:
            code = self.code_of(child)
            for v in self.btree.scan_eq(code):
                self.btree.delete(code, v)
        block.merge()
        code = self.code_of(block)
        for v in sorted(distinct, key=self.seg_id_of):
            self.btree.insert(code, v)
        block.count = len(distinct)

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------
    def candidate_ids_at_point(self, p: Point) -> List[int]:
        """One in-memory directory descent, then one bucket scan.

        Under EXPLAIN the descent is recorded as node visits per level;
        it moves no counters, so those buckets show zero disk work --
        which is itself the finding: the PMR pays for buckets and B-tree
        pages, never for directory levels.
        """
        prof = self.ctx.profile
        block = self.root
        while block.children is not None:
            if prof is not None:
                prof.level(block.depth).node_visits += 1
            block = block.child_containing(p.x, p.y, self.world_size)
        if prof is not None:
            prof.count(COUNT_BLOCKS_DECODED, block.depth + 1)
        values = self._scan_bucket(prof, block)
        if self.store_bboxes:
            return [
                v[0]
                for v in values
                if v[1][0] <= p.x <= v[1][2] and v[1][1] <= p.y <= v[1][3]
            ]
        return values

    def _scan_bucket(self, prof, block: PMRBlock) -> List[Any]:
        """Examine one leaf bucket: one bounding-box comparison charged
        to the block's level, then its B-tree scan charged to ``btree``."""
        counters = self.ctx.counters
        acct = None
        if prof is not None:
            prof.open(counters)
        counters.bbox_comps += 1
        if prof is not None:
            prof.close_level(block.depth, examined=1, matched=1)
            acct = ScanStats()
            prof.open(counters)
        values = self.btree.scan_eq(self.code_of(block), acct)
        if prof is not None:
            self._close_btree_scans(prof, acct, scans=1)
        return values

    @staticmethod
    def _close_btree_scans(prof, acct: ScanStats, scans: int) -> None:
        prof.close_cause(CAUSE_BTREE, visits=acct.internal + acct.leaves)
        prof.count(COUNT_BTREE_SCANS, scans)
        prof.count(COUNT_BTREE_LEAVES, acct.leaves)
        prof.count(COUNT_BTREE_INTERNAL, acct.internal)

    def candidate_ids_in_rect(self, rect: Rect) -> List[int]:
        """Window decomposition in the style of Aref & Samet [1].

        The directory is walked in Z-order; intersecting leaf buckets
        whose locational-code intervals are contiguous form *runs*, and
        each run is retrieved with a single B-tree interval scan. A
        window therefore costs one descent per time the Z curve enters
        the window, not one per bucket -- which is what makes the linear
        quadtree competitive on range queries despite its many buckets.

        Under EXPLAIN each bucket comparison lands in its block's level
        and the interval scans' B-tree traffic in the ``btree`` cause,
        with leaf/internal visit tallies from :class:`~repro.btree.ScanStats`.
        """
        prof = self.ctx.profile
        counters = self.ctx.counters
        xmin, ymin, xmax, ymax = rect
        intervals: List[List[int]] = []  # [lo, hi] code intervals
        # The walk allocates nothing per block: a child's closed square
        # is (bx, by) * size, tested against the window on integers.
        stack = [self.root]
        while stack:
            block = stack.pop()
            if block.children is not None:
                if prof is not None:
                    prof.level(block.depth).node_visits += 1
                    prof.count(COUNT_BLOCKS_DECODED)
                size = self.world_size >> (block.depth + 1)
                for child in block.children:
                    x = child.bx * size
                    y = child.by * size
                    if x <= xmax and xmin <= x + size and y <= ymax and ymin <= y + size:
                        stack.append(child)
                continue
            if prof is not None:
                prof.open(counters)
            counters.bbox_comps += 1  # one bucket examined
            if prof is not None:
                prof.close_level(block.depth, examined=1, matched=1)
                prof.count(COUNT_BLOCKS_DECODED)
            lo = block.lcode or self.code_of(block)  # no call once cached
            intervals.append(
                [lo, lo + (1 << (2 * (self.max_depth - block.depth))) - 1]
            )

        # Coalesce adjacent code intervals into maximal runs; the walk
        # emits them in no curve's order, so sort by code before merging.
        intervals.sort()
        runs: List[List[int]] = []
        for lo, hi in intervals:
            if runs and runs[-1][1] + 1 == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])

        out: List[int] = []
        acct = None
        if prof is not None:
            acct = ScanStats()
            prof.open(counters)
        for lo, hi in runs:
            entries = self.btree.scan_range(lo, hi, acct)
            if self.store_bboxes:
                out += [
                    v[0]
                    for _, v in entries
                    if v[1][0] <= xmax and xmin <= v[1][2]
                    and v[1][1] <= ymax and ymin <= v[1][3]
                ]
            else:
                out += [v for _, v in entries]
        if prof is not None:
            self._close_btree_scans(prof, acct, scans=len(runs))
        return out

    def nn_start(self, p: Point) -> List[NNItem]:
        return [NNItem(0.0, False, self.root)]

    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        """Expand one block (EXPLAIN levels are block depths)."""
        prof = self.ctx.profile
        block: PMRBlock = ref
        if prof is not None:
            prof.count(COUNT_NN_EXPANSIONS)
        if block.children is not None:
            if prof is not None:
                # Directory expansion: in-memory, moves no counters.
                prof.count(COUNT_BLOCKS_DECODED)
                bucket = prof.level(block.depth)
                bucket.node_visits += 1
                bucket.entries_examined += len(block.children)
                bucket.entries_matched += len(block.children)
            return [NNItem(self._block_dist2(p, c), False, c) for c in block.children]
        values = self._scan_bucket(prof, block)
        if self.store_bboxes:
            return [
                NNItem(
                    query_lower_bound(p, Rect(*v[1])),
                    True,
                    v[0],
                )
                for v in values
            ]
        d_block = self._block_dist2(p, block)
        return [NNItem(d_block, True, v) for v in values]

    def _block_dist2(self, query: NNQuery, block: PMRBlock) -> float:
        """``query_lower_bound(query, rect_of(block))`` on the block's
        integer square, without the ``Rect``; a point query is the
        degenerate MBR."""
        size = self.world_size >> block.depth
        x = block.bx * size
        y = block.by * size
        if isinstance(query, SegmentQuery):
            qx1, qy1, qx2, qy2 = query.mbr
        else:
            qx1, qy1 = qx2, qy2 = query
        dx = x - qx2 if qx2 < x else qx1 - (x + size) if x + size < qx1 else 0.0
        dy = y - qy2 if qy2 < y else qy1 - (y + size) if y + size < qy1 else 0.0
        return dx * dx + dy * dy

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def page_count(self) -> int:
        return self.btree.page_count

    def height(self) -> int:
        return self.btree.height

    def entry_count(self) -> int:
        return len(self.btree)

    def segment_count(self) -> int:
        return self._seg_count

    def leaf_blocks(self) -> List[PMRBlock]:
        """All leaf blocks (used by the paper's 2-stage query-point model)."""
        return list(self.root.iter_leaves())

    def bucket_occupancy(self, include_empty: bool = False) -> float:
        """Average q-edges per bucket (Concluding Remarks: about 0.5x)."""
        leaves = self.leaf_blocks()
        if not include_empty:
            leaves = [b for b in leaves if b.count > 0]
        if not leaves:
            return 0.0
        return sum(b.count for b in leaves) / len(leaves)

    def depth(self) -> int:
        """Depth of the deepest block in the decomposition."""
        return max(b.depth for b in self.root.iter_leaves())

    # ------------------------------------------------------------------
    # The decomposition rule, stated for the fsck
    # ------------------------------------------------------------------
    def block_is_legal(self, block: PMRBlock) -> bool:
        """May ``block`` (a leaf above ``max_depth``) stand unsplit?
        Section 3's bound: split once per insertion, so a bucket holds
        at most threshold + depth q-edges."""
        return block.count <= self.threshold + block.depth
