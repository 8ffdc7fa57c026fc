"""Snapshot format 3: the directory byte string, the file's size, and a
saved index against one that never was.

The directory codec (:func:`repro.core.pmr.blocks.encode_directory` /
``decode_directory``) is checked on trees grown by random insert/delete
sequences and on the shapes the grammar has a case for: the root alone,
a chain of splits down to ``max_depth``, a leaf too full for one byte.
The size budget keeps a PMR snapshot from drifting back above the R\\*'s
without the paper-scale benchmark having to say so.
"""

from __future__ import annotations

import io
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import TEST_DEPTH, TEST_WORLD
from repro.analysis import check_index
from repro.core.pmr import PMRQuadtree
from repro.core.pmr.blocks import SPLIT, WIDE, decode_directory, encode_directory
from repro.core.queries.spec import QuerySpec, execute_spec
from repro.data import generate_county
from repro.geometry import Point, Rect, Segment
from repro.harness.experiment import build_structure
from repro.service import open_index, save_index
from repro.storage import StorageContext


def saved(index) -> bytes:
    buf = io.BytesIO()
    save_index(index, buf)
    return buf.getvalue()


def shape(root):
    """Pre-order ``(depth, bx, by, count or None for a split block)``."""
    out, stack = [], [root]
    while stack:
        block = stack.pop()
        out.append(
            (block.depth, block.bx, block.by, None if block.children else block.count)
        )
        stack.extend(reversed(block.children or ()))
    return out


def assert_codec_holds(index):
    """Every claim the format makes about one PMR tree."""
    data = encode_directory(index.root)
    blocks = shape(index.root)
    fuller = sum(1 for *_, count in blocks if count is not None and count >= WIDE)
    assert len(data) == len(blocks) + 4 * fuller
    decoded = decode_directory(data, index.max_depth)
    assert shape(decoded) == blocks
    assert all(block.lcode is None for block in decoded.iter_leaves())
    assert check_index(index) == []
    first = saved(index)
    reopened = open_index(io.BytesIO(first))
    assert shape(reopened.root) == blocks
    assert check_index(reopened) == []
    assert saved(reopened) == first
    return data


@settings(max_examples=100, deadline=None)
@given(
    threshold=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(0, 300),
)
def test_directory_round_trips_on_grown_trees(threshold, seed, n_ops):
    rng = random.Random(seed)
    ctx = StorageContext.create()
    index = PMRQuadtree(
        ctx, threshold=threshold, max_depth=TEST_DEPTH, world_size=TEST_WORLD
    )
    live = []
    for _ in range(n_ops):
        if live and rng.random() < 0.35:
            index.delete(live.pop(rng.randrange(len(live))))
            continue
        x, y = rng.randrange(TEST_WORLD - 64), rng.randrange(TEST_WORLD - 64)
        segment = Segment(x, y, x + rng.randrange(1, 64), y + rng.randrange(64))
        live.append(ctx.segments.append(segment))
        index.insert(live[-1])
    assert_codec_holds(index)


def test_root_only_tree_is_one_byte():
    index = PMRQuadtree(StorageContext.create())
    assert assert_codec_holds(index) == b"\x00"


def test_chain_to_max_depth_under_a_leaf_too_full_for_one_byte():
    """300 segments inside one pixel: every insertion splits once, so the
    directory is a chain of splits to depth 14, and the pixel's leaf --
    which can split no further -- holds them all."""
    ctx = StorageContext.create()
    index = PMRQuadtree(ctx, threshold=1)
    for i in range(300):  # coordinates exact in float32
        index.insert(ctx.segments.append(Segment(0.25, 0.25, 0.5, 0.25 + i / 1024)))
    assert index.depth() == index.max_depth == 14
    data = assert_codec_holds(index)
    assert data[:14] == bytes([SPLIT]) * 14
    assert data[14:19] == bytes([WIDE]) + struct.pack("<I", 300)
    assert set(data[19:]) == {0}


def test_leaf_counts_at_the_one_byte_boundary():
    for count in (WIDE - 1, WIDE, WIDE + 1):
        ctx = StorageContext.create()
        index = PMRQuadtree(ctx, threshold=1, max_depth=1, world_size=2)
        for i in range(count):
            index.insert(ctx.segments.append(Segment(0.25, 0.25, 0.5, 0.25 + i / 1024)))
        data = assert_codec_holds(index)
        assert (WIDE in data) == (count >= WIDE)


# ----------------------------------------------------------------------
# Size: what a stored index costs, on cecil at scale 0.1
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cecil():
    return generate_county("cecil", scale=0.1)


def test_pmr_snapshot_stays_within_the_size_budget(cecil):
    pmr = saved(build_structure("PMR", cecil).index)
    rstar = saved(build_structure("R*", cecil).index)
    assert len(pmr) <= 1.15 * len(rstar)
    for blob in (pmr, rstar):
        (header_len,) = struct.unpack_from("<I", blob)
        assert 4 + header_len <= 0.10 * len(blob)


# ----------------------------------------------------------------------
# A saved-and-reopened index against one that was never saved
# ----------------------------------------------------------------------
def _drive(index, rng):
    """500 mixed queries and 100 insert/delete pairs from a cold pool:
    ``(answers, counter movement)``."""
    index.ctx.pool.clear()
    start = index.ctx.counters.snapshot()
    size = index.extent().width
    answers = []
    for i in range(500):
        p = Point(rng.randrange(int(size)), rng.randrange(int(size)))
        if i % 3 == 0:
            spec = QuerySpec.point(p)
        elif i % 3 == 1:
            spec = QuerySpec.nearest(p)
        else:
            spec = QuerySpec.window(Rect(p.x, p.y, p.x + size / 40, p.y + size / 40))
        answers.append(execute_spec(index, spec))
    for _ in range(100):
        x, y = rng.randrange(int(size) - 200), rng.randrange(int(size) - 200)
        seg_id = index.ctx.segments.append(Segment(x, y, x + 150, y + 90))
        index.insert(seg_id)
        answers.append(execute_spec(index, QuerySpec.point(Point(x, y))))
        index.delete(seg_id)
    return answers, index.ctx.counters.since(start)


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("R*", {}),
        ("R+", {"page_size": 2048}),  # overflows a 1 KiB page on this map
        ("PMR", {}),
    ],
    ids=["R*", "R+", "PMR-morton"],
)
def test_reopened_index_is_indistinguishable_from_one_never_saved(cecil, kind, kwargs):
    never_saved = build_structure(kind, cecil, **kwargs).index
    reopened = open_index(io.BytesIO(saved(build_structure(kind, cecil, **kwargs).index)))
    assert check_index(reopened) == check_index(never_saved) == []
    want = _drive(never_saved, random.Random(24))
    got = _drive(reopened, random.Random(24))
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert check_index(reopened) == check_index(never_saved) == []
