"""The vectorized window kernel: struct-of-arrays node mirrors.

:class:`VectorBackend` runs the same window search as the scalar path
but tests a whole node's entries in one numpy comparison instead of a
per-entry Python loop; every other op is the inherited scalar search.
It is a library kernel, not a served path: the benchmarks time it
against the scalar loop (``core.vector_*`` in the e2e record,
``benchmarks/vector_crossover.py``). The design follows the SIMD-ified
R-tree traversal literature: each visited node's ``(rect, ref)`` entry
list is mirrored once into a struct-of-arrays block (four coordinate
arrays plus a ref array), and the window predicate becomes a boolean
mask over those arrays.

The parity contract (see :mod:`repro.core.backends`) is strict:
counters must match the scalar path **to the unit**. That shapes
everything here:

* Single-query traversal keeps the exact scalar LIFO descent -- one
  ``pool.get`` per node, ``bbox_comps += len(node.entries)`` per visit,
  matched children pushed in entry order -- so disk reads, buffer hits
  and comparison counts are bit-identical; only the per-entry predicate
  is replaced by a mask.
* Verification charges each unique candidate's ``ctx.segments.fetch``
  in the same order as the scalar verify loop (identical
  ``segment_comps``), then applies the geometry predicate in
  one array pass that replicates the scalar float semantics exactly
  (Cohen-Sutherland outcodes and the four-corner cross test).
* Batched descent (:meth:`VectorBackend.run_batch`) is query-major at
  the counter level but node-major at the page level: a frontier maps
  each page to the queries still alive there, every page is fetched
  once per batch, and per-query results are reconstructed in scalar DFS
  order afterwards. Per-query ``bbox_comps``/``segment_comps`` and
  result lists stay exact; total disk accesses can only shrink.

Mirrors are derived state. Blocks carry an ``(id(entries), len)``
freshness key that catches list replacement, but in-place entry updates
(e.g. a parent MBR adjustment) do not change either -- so every index
mutation must be followed by :meth:`VectorBackend.invalidate`.

The kernel knows nothing of EXPLAIN or tracing, which only run inside
an engine, and an engine serves the scalar path alone.

The module imports without numpy (``HAVE_NUMPY`` is then false);
:func:`repro.core.backends.resolve_backend` degrades to the scalar
backend in that case.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Tuple

try:  # pragma: no cover - exercised where numpy is not installed
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    HAVE_NUMPY = False

from repro.core.backends import ScalarBackend
from repro.core.interface import SpatialIndex
from repro.geometry import Rect


# ----------------------------------------------------------------------
# Vectorized geometry predicates (exact twins of repro.geometry)
# ----------------------------------------------------------------------
def _segments_meet_bounds(arr, bxmin, bymin, bxmax, bymax):
    """Array twin of :func:`repro.geometry.clipping.segment_intersects_rect`.

    ``arr`` is ``(n, 4)`` float64 rows of ``(x1, y1, x2, y2)``; the
    bounds are scalars (one window for every row) or length-``n`` arrays
    (each row against its own window -- the batched verify). The
    arithmetic is the same IEEE-double expression as the scalar corner
    test, so the accept/reject decisions are bit-identical.
    """
    x1, y1, x2, y2 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    code1 = (
        (x1 < bxmin) * 1
        + (x1 > bxmax) * 2
        + (y1 < bymin) * 4
        + (y1 > bymax) * 8
    )
    code2 = (
        (x2 < bxmin) * 1
        + (x2 > bxmax) * 2
        + (y2 < bymin) * 4
        + (y2 > bymax) * 8
    )
    hit = (code1 == 0) | (code2 == 0)
    disjoint = (code1 & code2) != 0
    undecided = ~hit & ~disjoint
    if undecided.any():
        dx = x2 - x1
        dy = y2 - y1
        pos = np.zeros(x1.shape, dtype=bool)
        neg = np.zeros(x1.shape, dtype=bool)
        zero = np.zeros(x1.shape, dtype=bool)
        for cx, cy in (
            (bxmin, bymin),
            (bxmin, bymax),
            (bxmax, bymin),
            (bxmax, bymax),
        ):
            cross = dx * (cy - y1) - dy * (cx - x1)
            pos |= cross > 0
            neg |= cross < 0
            zero |= cross == 0
        # The scalar loop returns True on a zero cross or the first sign
        # flip; over all four corners that is exactly this expression.
        hit = hit | (undecided & (zero | (pos & neg)))
    return hit


def _segments_meet_rect(arr, rect: Rect):
    return _segments_meet_bounds(
        arr, rect.xmin, rect.ymin, rect.xmax, rect.ymax
    )


def _segments_in_bounds(arr, bxmin, bymin, bxmax, bymax):
    """Both endpoints inside the closed bounds (``mode="contains"``)."""
    return (
        (bxmin <= arr[:, 0])
        & (arr[:, 0] <= bxmax)
        & (bymin <= arr[:, 1])
        & (arr[:, 1] <= bymax)
        & (bxmin <= arr[:, 2])
        & (arr[:, 2] <= bxmax)
        & (bymin <= arr[:, 3])
        & (arr[:, 3] <= bymax)
    )


def _segments_in_rect(arr, rect: Rect):
    return _segments_in_bounds(
        arr, rect.xmin, rect.ymin, rect.xmax, rect.ymax
    )


def _unique_first_seen(candidates):
    """Candidate ids deduplicated in first-seen order, as an int array.

    This is the order the scalar verify loop fetches in; R/R* feeds
    already-unique lists (one leaf per segment) and skips the
    ``np.unique`` pass entirely.
    """
    arr = np.asarray(candidates, dtype=np.int64)
    if arr.size <= 1:
        return arr
    _, first = np.unique(arr, return_index=True)
    if first.size == arr.size:
        return arr
    first.sort()
    return arr[first]


# ----------------------------------------------------------------------
# Struct-of-arrays node mirrors
# ----------------------------------------------------------------------
class _NodeBlock:
    """One R/R*/R+ node's entries, columnar."""

    __slots__ = ("key", "xmin", "ymin", "xmax", "ymax", "refs")

    def __init__(self, entries) -> None:
        self.key = (id(entries), len(entries))
        if entries:
            rects = np.array([e[0] for e in entries], dtype=np.float64)
            self.xmin = rects[:, 0]
            self.ymin = rects[:, 1]
            self.xmax = rects[:, 2]
            self.ymax = rects[:, 3]
            self.refs = np.array([e[1] for e in entries], dtype=np.int64)
        else:
            empty = np.empty(0, dtype=np.float64)
            self.xmin = self.ymin = self.xmax = self.ymax = empty
            self.refs = np.empty(0, dtype=np.int64)

    def window_mask(self, rect: Rect):
        return (
            (self.xmin <= rect.xmax)
            & (rect.xmin <= self.xmax)
            & (self.ymin <= rect.ymax)
            & (rect.ymin <= self.ymax)
        )


class _TreeMirror:
    """Page-id keyed cache of :class:`_NodeBlock` for one tree index."""

    __slots__ = ("blocks",)

    def __init__(self) -> None:
        self.blocks: Dict[int, _NodeBlock] = {}

    def block(self, page_id: int, node) -> _NodeBlock:
        entries = node.entries
        blk = self.blocks.get(page_id)
        if blk is not None and blk.key == (id(entries), len(entries)):
            return blk
        blk = _NodeBlock(entries)
        self.blocks[page_id] = blk
        return blk


class _BTreeMirror:
    """The PMR B-tree's separators and leaf chain, columnar.

    Lets a window's interval scans run as ``searchsorted`` slices over
    one global key array while still charging the *exact* ``pool.get``
    sequence of the scalar scan: the internal separators are kept so the
    descent can be replayed page by page (a descent routed by a stale
    separator may land one leaf early, and that extra leaf fetch must be
    charged), and the leaf chain's page ids and entry offsets give the
    chain-walk pages, including the trailing leaf fetched just to see
    the first out-of-range key.

    Built through ``disk.peek`` (node payloads are shared objects, so
    resident dirty pages are seen), so construction charges nothing.
    """

    __slots__ = ("internal", "leaf_pages", "leaf_pos", "leaf_ends",
                 "keys", "seg_ids", "bboxes")

    def __init__(self, index: SpatialIndex) -> None:
        btree = index.btree
        peek = btree.pool.disk.peek
        self.internal: Dict[int, Tuple[list, list]] = {}
        stack = [btree.root_id]
        while stack:
            pid = stack.pop()
            node = peek(pid)
            if node.is_leaf:
                continue
            self.internal[pid] = (node.keys, node.children)
            stack.extend(node.children)

        pid = btree.root_id
        node = peek(pid)
        while not node.is_leaf:
            pid = node.children[0]
            node = peek(pid)
        leaf_pages: List[int] = []
        ends: List[int] = []
        keys: List[int] = []
        values: List[Any] = []
        while True:
            leaf_pages.append(pid)
            for k, v in node.entries:
                keys.append(k)
                values.append(v)
            ends.append(len(keys))
            if node.next_page is None:
                break
            pid = node.next_page
            node = peek(pid)
        self.leaf_pages = leaf_pages
        self.leaf_pos = {p: i for i, p in enumerate(leaf_pages)}
        self.leaf_ends = ends
        self.keys = np.array(keys, dtype=np.int64)
        if index.store_bboxes:
            self.seg_ids = np.array([v[0] for v in values], dtype=np.int64)
            if values:
                self.bboxes = np.array(
                    [v[1] for v in values], dtype=np.float64
                )
            else:
                self.bboxes = np.empty((0, 4), dtype=np.float64)
        else:
            self.seg_ids = np.array(values, dtype=np.int64)
            self.bboxes = None


class _PMRMirror:
    """All leaf buckets of a PMR directory, columnar.

    One directory walk captures every leaf's rectangle plus its
    locational-code interval; a window query then reduces to a single
    mask over the rectangle arrays. Valid because a quadtree child's
    rectangle is contained in its parent's: a leaf intersects the window
    iff every ancestor does, so masking leaves directly selects exactly
    the leaves the scalar recursive walk reaches.

    ``bt`` mirrors the B-tree itself (:class:`_BTreeMirror`) unless the
    locational codes could overflow int64, in which case interval scans
    fall back to :meth:`BPlusTree.scan_range`.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax", "lo", "hi", "lo_arr",
                 "hi_arr", "entry_count", "bt")

    def __init__(self, index: SpatialIndex) -> None:
        self.entry_count = len(index.btree)
        self.bt = _BTreeMirror(index) if 2 * index.max_depth <= 62 else None
        los: List[int] = []
        his: List[int] = []
        rects: List[Rect] = []
        stack = [index.root]
        while stack:
            block = stack.pop()
            if block.children is not None:
                stack.extend(block.children)
                continue
            lo = index.code_of(block)
            los.append(lo)
            his.append(lo + (1 << (2 * (index.max_depth - block.depth))) - 1)
            rects.append(index.rect_of(block))
        # Codes stay Python ints (arbitrary precision); the int64 twins
        # exist only when the B-tree mirror proved they fit.
        self.lo = los
        self.hi = his
        if self.bt is not None:
            self.lo_arr = np.array(los, dtype=np.int64)
            self.hi_arr = np.array(his, dtype=np.int64)
        else:
            self.lo_arr = self.hi_arr = None
        arr = np.array(rects, dtype=np.float64)
        self.xmin = arr[:, 0]
        self.ymin = arr[:, 1]
        self.xmax = arr[:, 2]
        self.ymax = arr[:, 3]


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class VectorBackend(ScalarBackend):
    """numpy struct-of-arrays window search with exact counter parity.

    The spec dispatch is :meth:`ScalarBackend.run`; this class overrides
    the window search (everything else *is* the scalar search) and adds
    the fused batch descent.
    """

    name = "vector"

    def __init__(self) -> None:
        if not HAVE_NUMPY:  # pragma: no cover - guarded by resolve_backend
            raise RuntimeError(
                "VectorBackend requires numpy; install the [vector] extra "
                "or use resolve_backend('vector') for graceful fallback"
            )
        self._tree_mirrors: Dict[int, _TreeMirror] = {}
        self._pmr_mirrors: Dict[int, _PMRMirror] = {}
        # id(index) -> (segment count, (n, 4) coords, page-id array)
        self._seg_mirrors: Dict[int, Tuple[int, Any, Any]] = {}

    # -- plumbing ------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every mirror (call after every index mutation)."""
        self._tree_mirrors.clear()
        self._pmr_mirrors.clear()
        self._seg_mirrors.clear()

    def _tree_mirror(self, index: SpatialIndex) -> _TreeMirror:
        mirror = self._tree_mirrors.get(id(index))
        if mirror is None:
            mirror = _TreeMirror()
            self._tree_mirrors[id(index)] = mirror
        return mirror

    def _pmr_mirror(self, index: SpatialIndex) -> _PMRMirror:
        mirror = self._pmr_mirrors.get(id(index))
        if mirror is None or mirror.entry_count != len(index.btree):
            mirror = _PMRMirror(index)
            self._pmr_mirrors[id(index)] = mirror
        return mirror

    def _seg_mirror(self, index: SpatialIndex):
        """Columnar copy of the segment table plus its page map.

        Built with ``peek`` (no counters touched); sound to cache on the
        table length because the table is append-only -- deletes
        unindex, they never rewrite rows.
        """
        key = id(index)
        table = index.ctx.segments
        mirror = self._seg_mirrors.get(key)
        if mirror is None or mirror[0] != len(table):
            n = len(table)
            if n:
                coords = np.array(
                    [table.peek(i) for i in range(n)], dtype=np.float64
                )
            else:
                coords = np.empty((0, 4), dtype=np.float64)
            pages = np.asarray(table.page_ids, dtype=np.int64)
            mirror = (n, coords, pages)
            self._seg_mirrors[key] = mirror
        return mirror

    # -- verification --------------------------------------------------
    def _charge_and_rows(
        self, index: SpatialIndex, uniq_list, page_major: bool = False
    ):
        """Charge the scalar verify's storage traffic; return coord rows.

        The scalar loop fetches each unique candidate through
        ``segments.fetch``: one ``segment_comps`` per id plus one
        ``pool.get`` on the id's table page. Here consecutive same-page
        fetches collapse into one run of :meth:`BufferPool.get_runs` --
        counter- and LRU-identical by construction -- and the endpoint rows come
        from the columnar mirror instead of the page payloads.

        ``page_major`` (batch verifies only) additionally sorts the
        charge sequence by table page, the verify-side analogue of the
        node-major fused descent: every access is still charged, so
        total pool gets are unchanged, but each shared page is faulted
        at most once per pass. Single-query runs keep the scalar access
        order so their disk/hit split stays exactly comparable.
        """
        total = sum(int(u.size) for u in uniq_list)
        if total == 0:
            return None
        _, coords, pages = self._seg_mirror(index)
        all_ids = (
            uniq_list[0]
            if len(uniq_list) == 1
            else np.concatenate([u for u in uniq_list if u.size])
        )
        table = index.ctx.segments
        pool = table.pool
        pool.counters.segment_comps += total
        page_seq = pages[all_ids // table.per_page]
        if page_major:
            page_seq = np.sort(page_seq)
        cut = np.flatnonzero(page_seq[1:] != page_seq[:-1]) + 1
        starts = np.concatenate(
            (np.zeros(1, dtype=np.intp), cut, [page_seq.size])
        )
        run_pages = page_seq[starts[:-1]].tolist()
        run_lens = np.diff(starts).tolist()
        pool.get_runs(zip(run_pages, run_lens))
        return coords[all_ids]

    def _verify_window(
        self, index: SpatialIndex, candidates, window: Rect, mode: str
    ) -> List[int]:
        """Array pass over the scalar dedup/fetch/verify loop: fetches
        charged in the scalar order (first-seen unique ids), then the
        window predicate over their coordinate rows."""
        uniq = _unique_first_seen(candidates)
        rows = self._charge_and_rows(index, [uniq])
        if rows is None:
            return []
        keep = _segments_meet_rect if mode == "intersects" else _segments_in_rect
        return uniq[keep(rows, window)].tolist()

    def _verify_windows_batch(
        self, index: SpatialIndex, cands_list, windows, mode: str
    ) -> List[List[int]]:
        """Batched :meth:`_verify_window`: one predicate pass, per-row
        window bounds, so each per-query keep decision is identical to
        the single-query verify."""
        uniq_list = [_unique_first_seen(c) for c in cands_list]
        rows = self._charge_and_rows(index, uniq_list, page_major=True)
        if rows is None:
            return [[] for _ in cands_list]
        reps = np.array([u.size for u in uniq_list], dtype=np.intp)
        bxmin = np.repeat(np.array([w.xmin for w in windows]), reps)
        bymin = np.repeat(np.array([w.ymin for w in windows]), reps)
        bxmax = np.repeat(np.array([w.xmax for w in windows]), reps)
        bymax = np.repeat(np.array([w.ymax for w in windows]), reps)
        if mode == "intersects":
            keep = _segments_meet_bounds(rows, bxmin, bymin, bxmax, bymax)
        else:
            keep = _segments_in_bounds(rows, bxmin, bymin, bxmax, bymax)
        out: List[List[int]] = []
        start = 0
        for uniq in uniq_list:
            out.append(uniq[keep[start : start + uniq.size]].tolist())
            start += uniq.size
        return out

    # -- single-query traversal ----------------------------------------
    def _window(self, index: SpatialIndex, window: Rect, mode: str):
        if index.stock_search == "rtree":
            candidates = self._tree_candidates(index, window)
        elif index.stock_search == "pmr":
            candidates = self._pmr_rect_candidates(index, window)
        else:  # loops of its own: the scalar reference
            return super()._window(index, window, mode)
        return self._verify_window(index, candidates, window, mode)

    def _tree_candidates(self, index: SpatialIndex, rect: Rect):
        """Scalar DFS with a vectorized per-node predicate.

        Same ``pool.get`` order, same ``bbox_comps`` charges, matched
        refs extracted in entry order -- counters and candidate order
        are identical to :func:`repro.core.treesearch.search_tree`.
        """
        pool = index.ctx.pool
        counters = index.ctx.counters
        mirror = self._tree_mirror(index)
        out: List[int] = []
        stack = [index.root_id]
        while stack:
            page_id = stack.pop()
            node = pool.get(page_id)
            counters.bbox_comps += len(node.entries)
            blk = mirror.block(page_id, node)
            if blk.refs.size:
                matched = blk.refs[blk.window_mask(rect)].tolist()
            else:
                matched = []
            if node.is_leaf:
                out.extend(matched)
            else:
                stack.extend(matched)
        return out

    def _pmr_rect_candidates(self, index: SpatialIndex, rect: Rect):
        """Window decomposition over the leaf mirror.

        One mask replaces the recursive directory walk; the interval
        set, the ``bbox_comps`` lump charge, the sort/coalesce into
        runs and the per-run B-tree scans match the scalar
        ``candidate_ids_in_rect`` exactly.
        """
        mirror = self._pmr_mirror(index)
        mask = (
            (mirror.xmin <= rect.xmax)
            & (rect.xmin <= mirror.xmax)
            & (mirror.ymin <= rect.ymax)
            & (rect.ymin <= mirror.ymax)
        )
        if mirror.bt is not None:
            hit_ix = np.flatnonzero(mask)
            index.ctx.counters.bbox_comps += int(hit_ix.size)
            los = mirror.lo_arr[hit_ix]
            his = mirror.hi_arr[hit_ix]
            order = np.argsort(los)  # interval lows are distinct
            los = los[order]
            his = his[order]
            if los.size:
                # Coalesce: a new run starts wherever an interval does
                # not continue its predecessor's codes.
                starts = np.flatnonzero(
                    np.concatenate(([True], los[1:] != his[:-1] + 1))
                )
                run_los = los[starts]
                run_his = his[
                    np.concatenate((starts[1:] - 1, [los.size - 1]))
                ]
            else:
                run_los = run_his = los
            return self._pmr_scan_runs(
                index, mirror.bt, run_los, run_his, rect
            )

        hits = np.flatnonzero(mask).tolist()
        index.ctx.counters.bbox_comps += len(hits)

        intervals = sorted([mirror.lo[i], mirror.hi[i]] for i in hits)
        runs: List[List[int]] = []
        for lo, hi in intervals:
            if runs and runs[-1][1] + 1 == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])

        out: List[int] = []
        store_bboxes = index.store_bboxes
        for lo, hi in runs:
            for _, v in index.btree.scan_range(lo, hi):
                if store_bboxes:
                    if Rect(v[1][0], v[1][1], v[1][2], v[1][3]).intersects(rect):
                        out.append(v[0])
                else:
                    out.append(index.seg_id_of(v))
        return out

    def _pmr_scan_runs(
        self,
        index: SpatialIndex,
        bt: _BTreeMirror,
        run_los,
        run_his,
        rect: Rect,
    ):
        """Interval scans over the B-tree mirror.

        Each run replays the scalar scan's page traffic exactly -- the
        separator-routed descent, then the leaf chain up to and
        including the leaf holding the first key past the run (or the
        chain's end) -- as one bulk :meth:`BufferPool.get_runs` charge,
        while the entries themselves come from ``searchsorted`` slices
        of the mirrored key array.
        """
        keys = bt.keys
        ends = bt.leaf_ends
        leaf_pages = bt.leaf_pages
        leaf_pos = bt.leaf_pos
        internal = bt.internal
        n_leaves = len(leaf_pages)
        root = index.btree.root_id
        j0s = keys.searchsorted(run_los, "left")
        j1s = keys.searchsorted(run_his, "right")
        pages: List[Tuple[int, int]] = []
        append = pages.append
        for lo, j1 in zip(run_los.tolist(), j1s.tolist()):
            page_id = root
            probe = (lo,)
            node = internal.get(page_id)
            while node is not None:
                append((page_id, 1))
                page_id = node[1][bisect_right(node[0], probe)]
                node = internal.get(page_id)
            append((page_id, 1))
            # Chain walk: a leaf exhausted without an out-of-range key
            # hands over to its successor, which is fetched even when it
            # contributes nothing (its first key is the stop signal).
            i = leaf_pos[page_id]
            while ends[i] <= j1 and i + 1 < n_leaves:
                i += 1
                append((leaf_pages[i], 1))
        index.ctx.pool.get_runs(pages)

        counts = j1s - j0s
        total = int(counts.sum())
        if not total:
            return np.empty(0, dtype=np.int64)
        # Concatenated [j0, j1) ranges without a per-run gather loop.
        cum = counts.cumsum()
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            j0s - (cum - counts), counts
        )
        cands = bt.seg_ids[idx]
        if bt.bboxes is not None:
            boxes = bt.bboxes[idx]
            keep = (
                (boxes[:, 0] <= rect.xmax)
                & (rect.xmin <= boxes[:, 2])
                & (boxes[:, 1] <= rect.ymax)
                & (rect.ymin <= boxes[:, 3])
            )
            cands = cands[keep]
        return cands

    # -- query-batched descent -----------------------------------------
    def run_batch(self, index: SpatialIndex, specs) -> List[Any]:
        """Execute a batch, fusing each group of same-mode windows.

        On the R-trees a group shares one node-major descent: each
        shared upper-level node is fetched once for all windows still
        alive at it and tested with one (entries x queries) broadcast
        mask, and per-query candidates are rebuilt in scalar DFS order.
        The PMR has no shared descent to fuse (each window charges its
        own decomposition + scans), but the verify pass batches. Either
        way results, ``bbox_comps`` and ``segment_comps`` match
        per-query scalar runs to the unit; only the page access
        *pattern* changes (never more total accesses). Every other spec
        runs alone through :meth:`run`.
        """
        specs = list(specs)
        results: List[Any] = [None] * len(specs)
        fused: set = set()
        search = index.stock_search
        for mode in ("intersects", "contains"):
            window_ix = [
                i
                for i, s in enumerate(specs)
                if s.op == "window" and s.mode == mode
            ]
            if len(window_ix) <= 1 or search not in ("rtree", "pmr"):
                continue
            rects = [specs[i].to_rect() for i in window_ix]
            if search == "rtree":
                cands_list = self._fused_tree_candidates(index, rects)
            else:
                cands_list = [
                    self._pmr_rect_candidates(index, r) for r in rects
                ]
            for i, found in zip(
                window_ix,
                self._verify_windows_batch(index, cands_list, rects, mode),
            ):
                results[i] = found
            fused.update(window_ix)
        for i, spec in enumerate(specs):
            if i not in fused:
                results[i] = self.run(index, spec)
        return results

    def _fused_tree_candidates(
        self, index: SpatialIndex, rects
    ) -> List[List[int]]:
        """One node-major descent for a whole window batch.

        ``frontier`` maps each page to the (ordered) list of query
        indexes whose scalar traversal would visit it; the per-node
        charge ``len(entries) * len(alive)`` therefore equals the sum
        of the scalar per-query charges. The recorded per-(query, page)
        match lists then replay each query's LIFO descent without
        touching the pool again.
        """
        pool = index.ctx.pool
        counters = index.ctx.counters
        mirror = self._tree_mirror(index)
        n = len(rects)
        # One (4, n) bounds matrix: row order lo-x, lo-y, hi-x, hi-y.
        qb = np.array(
            [
                [r.xmin for r in rects],
                [r.ymin for r in rects],
                [r.xmax for r in rects],
                [r.ymax for r in rects],
            ],
            dtype=np.float64,
        )

        root = index.root_id
        frontier: Dict[int, List[int]] = {root: list(range(n))}
        # plans[q][page_id] = (is_leaf, matched refs in entry order)
        plans: List[Dict[int, Tuple[bool, List[int]]]] = [
            {} for _ in range(n)
        ]
        while frontier:
            nxt: Dict[int, List[int]] = {}
            for page_id, alive in frontier.items():
                node = pool.get(page_id)
                counters.bbox_comps += len(node.entries) * len(alive)
                blk = mirror.block(page_id, node)
                is_leaf = node.is_leaf
                if not blk.refs.size:
                    for q in alive:
                        plans[q][page_id] = (is_leaf, [])
                    continue
                sub = (
                    qb
                    if len(alive) == n
                    else qb[:, np.array(alive, dtype=np.intp)]
                )
                mask = (
                    (blk.xmin[:, None] <= sub[2])
                    & (sub[0] <= blk.xmax[:, None])
                    & (blk.ymin[:, None] <= sub[3])
                    & (sub[1] <= blk.ymax[:, None])
                )
                # mask.T's nonzero walks column-major: per query, entry
                # indexes in ascending (= entry) order -- one numpy call
                # extracts every query's match list for this node.
                _, rows = np.nonzero(mask.T)
                matched_refs = blk.refs[rows].tolist()
                counts = np.count_nonzero(mask, axis=0).tolist()
                start = 0
                for col, q in enumerate(alive):
                    matched = matched_refs[start : start + counts[col]]
                    start += counts[col]
                    plans[q][page_id] = (is_leaf, matched)
                    if not is_leaf:
                        for child in matched:
                            bucket = nxt.get(child)
                            if bucket is None:
                                nxt[child] = [q]
                            else:
                                bucket.append(q)
            frontier = nxt

        out: List[List[int]] = []
        for q in range(n):
            plan = plans[q]
            candidates: List[int] = []
            stack = [root]
            while stack:
                is_leaf, matched = plan[stack.pop()]
                if is_leaf:
                    candidates.extend(matched)
                else:
                    stack.extend(matched)
            out.append(candidates)
        return out
