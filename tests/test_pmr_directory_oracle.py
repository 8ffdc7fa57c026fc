"""The parent's PMR directory walk is the oracle of the allocation-free one.

``ParentWalkPMR`` keeps, unchanged, what the per-block path was before it
stopped allocating: a ``Rect`` per child visited, a locational code
re-interleaved per bucket, ``Segment.intersects_rect`` on each child's
rectangle, and the entry-at-a-time B-tree scan (``tests/test_btree.py``
holds that one). Twin trees fed the same operations must return the same
candidate lists in the same order and move every ``MetricsCounters``
field -- ``disk_reads`` among them -- identically.
"""

import hashlib
import io
import random

import pytest

from repro.btree import BPlusTree
from repro.core.interface import NNItem, query_lower_bound
from repro.core.pmr import PMRQuadtree, locational_code
from repro.core.queries import QuerySpec, execute_spec
from repro.data.counties import generate_county
from repro.geometry import Point, Rect, Segment
from repro.service.snapshot import save_index
from repro.storage import StorageContext

from tests.test_btree import reference_scan_range

#: sha256 of ``save_index`` over PMR / cecil / scale 0.05 in snapshot
#: format 3. d1d56b5d... was the same tree while the manifest's params
#: still carried ``"curve": "morton"``, and 566ce176... the same tree in
#: format 2: each time the header changed, not the pages.
PARENT_SNAPSHOT_SHA256 = (
    "8462c13e6336283906918f39403d22943f66b20a5e454e1682e4c9790743ae1f"
)


class _ParentScanTree(BPlusTree):
    scan_range = reference_scan_range


class ParentWalkPMR(PMRQuadtree):
    """``PMRQuadtree`` with the parent commit's per-block path."""

    def _open(self, params, state):
        super()._open(params, state)
        self.btree.__class__ = _ParentScanTree

    def code_of(self, block):
        return locational_code(block.bx, block.by, block.depth, self.max_depth)

    def _insert_into(self, block, seg, value, affected):
        if block.children is not None:
            for child in block.children:
                if seg.intersects_rect(self.rect_of(child)):
                    self._insert_into(child, seg, value, affected)
            return
        self.btree.insert(self.code_of(block), value)
        block.count += 1
        affected.append(block)

    def _split_block(self, block):
        code = self.code_of(block)
        values = self.btree.scan_eq(code)
        for v in values:
            self.btree.delete(code, v)
        children = block.split()
        child_rects = [self.rect_of(c) for c in children]
        for v in values:
            seg = self.ctx.segments.fetch(self.seg_id_of(v))
            for child, rect in zip(children, child_rects):
                if seg.intersects_rect(rect):
                    self.btree.insert(self.code_of(child), v)
                    child.count += 1

    def _delete_from(self, block, seg, value):
        if block.children is None:
            code = self.code_of(block)
            if self.btree.contains(code, value):
                self.btree.delete(code, value)
                block.count -= 1
                return 1
            return 0
        removed = 0
        for child in block.children:
            if seg.intersects_rect(self.rect_of(child)):
                removed += self._delete_from(child, seg, value)
        if removed:
            self._try_merge(block)
        return removed

    def candidate_ids_in_rect(self, rect):
        counters = self.ctx.counters
        intervals = []

        def walk(block):
            if block.children is not None:
                for child in block.children:
                    if self.rect_of(child).intersects(rect):
                        walk(child)
                return
            counters.bbox_comps += 1
            lo = self.code_of(block)
            intervals.append(
                [lo, lo + (1 << (2 * (self.max_depth - block.depth))) - 1]
            )

        walk(self.root)
        intervals.sort()
        runs = []
        for lo, hi in intervals:
            if runs and runs[-1][1] + 1 == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        out = []
        for lo, hi in runs:
            for _, v in self.btree.scan_range(lo, hi):
                out.append(self.seg_id_of(v))
        return out

    def nn_expand(self, ref, p):
        block = ref
        if block.children is not None:
            return [
                NNItem(query_lower_bound(p, self.rect_of(c)), False, c)
                for c in block.children
            ]
        values = self._scan_bucket(None, block)
        d_block = query_lower_bound(p, self.rect_of(block))
        return [NNItem(d_block, True, self.seg_id_of(v)) for v in values]


@pytest.fixture(scope="module")
def cecil():
    return generate_county("cecil", 0.05)


def _build(cls, map_data, **kwargs):
    ctx = StorageContext.create(page_size=1024, pool_pages=16)
    index = cls(ctx, **kwargs)
    for seg_id in ctx.load_segments(map_data.segments):
        index.insert(seg_id)
    ctx.pool.flush()
    return index


def _twins(map_data):
    old = _build(ParentWalkPMR, map_data)
    new = _build(PMRQuadtree, map_data)
    assert old.ctx.counters.snapshot() == new.ctx.counters.snapshot()
    return old, new


def _same(old, new, what, fn):
    """Run ``fn`` on both twins: equal answers, equal counters."""
    got_old, got_new = fn(old), fn(new)
    assert got_new == got_old, what
    assert new.ctx.counters.snapshot() == old.ctx.counters.snapshot(), what
    return got_new


def _boundary_points(index, rng, n):
    leaves = index.leaf_blocks()
    points = []
    while len(points) < n:
        r = index.rect_of(rng.choice(leaves))
        x = rng.choice((r.xmin, r.xmax, (r.xmin + r.xmax) / 2))
        y = rng.choice((r.ymin, r.ymax, (r.ymin + r.ymax) / 2))
        if x < index.world_size and y < index.world_size:
            points.append(Point(x, y))
    return points


def test_same_candidates_same_counters(cecil):
    old, new = _twins(cecil)
    world = new.world_size
    rng = random.Random("directory-morton")
    for index in (old, new):
        index.ctx.pool.clear()
        index.ctx.counters.reset()

    rows = 0
    for i in range(500):
        seg = rng.choice(cecil.segments)
        side = world * rng.choice((0.01, 0.03, 0.10, 0.30))
        x, y = seg.x1 - side / 2, seg.y1 - side / 2
        if i % 10 == 0:  # reach past the world's edge, or miss it wholly
            x, y = rng.choice(((-side / 2, y), (x, world - side / 3), (world + 1, y)))
        w = Rect(x, y, x + side, y + side)
        rows += len(_same(old, new, w, lambda ix: ix.candidate_ids_in_rect(w)))
        _same(old, new, w, lambda ix: execute_spec(ix, QuerySpec.window(w)))
    assert rows > 5_000

    for p in _boundary_points(new, rng, 500):
        _same(old, new, p, lambda ix: ix.candidate_ids_at_point(p))
        _same(old, new, p, lambda ix: execute_spec(ix, QuerySpec.nearest(p, 3)))

    shapes = {len(new.leaf_blocks())}
    live = []
    for i in range(200):
        x, y = rng.randrange(world - 600), rng.randrange(world - 600)
        reach = rng.choice((8, 40, 600))
        seg = Segment(x, y, x + rng.randrange(reach), y + rng.randrange(reach))

        def insert(ix):
            (seg_id,) = ix.ctx.load_segments([seg])
            ix.insert(seg_id)
            return seg_id

        live.append(_same(old, new, seg, insert))
        _same(old, new, seg, lambda ix: ix.candidate_ids_in_rect(seg.mbr()))
        shapes.add(len(new.leaf_blocks()))
        # Each insert is paired with a delete, eight operations later.
        for seg_id in live[:-8] if i < 199 else live:
            _same(old, new, seg_id, lambda ix: ix.delete(seg_id))
        del live[:-8]
    assert len(shapes) > 1  # the run split (and merged) blocks
    assert new.state() == old.state()
    assert list(new.btree.items()) == list(old.btree.items())
    new.check_invariants()
    assert new.ctx.counters.disk_reads == old.ctx.counters.disk_reads > 0


def test_snapshot_bytes_are_the_parents(cecil):
    """The cached code is navigational state: it reaches no page and no
    manifest, so the snapshot is the parent's to the byte."""
    digests = []
    for cls in (PMRQuadtree, ParentWalkPMR):
        buf = io.BytesIO()
        save_index(_build(cls, cecil), buf)
        digests.append(hashlib.sha256(buf.getvalue()).hexdigest())
    assert digests[0] == digests[1] == PARENT_SNAPSHOT_SHA256
