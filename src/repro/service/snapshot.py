"""Queryable snapshots: persist a built index, reopen it without rebuilding.

:func:`repro.storage.codec.dump_database` persists raw pages;  that alone
is not a *snapshot*, because nothing records which pages form the index:
a reloaded disk could only be queried by re-inserting every segment. This
module adds the missing manifest, and it is the index's own words:
:func:`save_index` flushes the buffer pool and writes the pages together
with the index's name, what its ``params()`` and ``state()`` return
(construction parameters; root page id, height, counts, page inventory
-- for the PMR quadtree also the B-tree head and the in-memory block
directory) and the segment-table head; :func:`open_index` hands the
same sections back to the class's ``reopen``, which binds the exact
index object to the reloaded disk -- zero inserts, zero page
allocations or writes, identical query answers and statistics.

A structure is snapshottable when its class declares ``state()``
(:data:`repro.core.SERVABLE`: the paper's three plus the Guttman
baseline); nothing here knows one kind from another.
"""

from __future__ import annotations

import os
from typing import Any, BinaryIO, Dict, Optional, Union

from repro.core import STRUCTURES
from repro.errors import SnapshotError
from repro.storage.codec import dump_database, load_snapshot, read_header
from repro.storage.context import StorageContext
from repro.storage.policies import ReplacementPolicy

MANIFEST_VERSION = 1


def save_index(
    index,
    dest: Union[str, os.PathLike, BinaryIO],
    extra: Optional[Dict[str, Any]] = None,
) -> int:
    """Persist a built index as a queryable snapshot.

    Flushes the buffer pool, then writes every disk page plus a manifest
    recording the index kind (its row of :data:`repro.core.STRUCTURES`),
    what its ``params()`` and ``state()`` return, and the segment-table
    head. Returns the number of pages written. Raises
    :class:`~repro.errors.SnapshotError` (a ``CodecError``) for an index
    whose class declares no ``state()``.

    ``extra`` merges additional top-level keys into the manifest; the
    durability layer embeds ``{"wal": {"checkpoint_lsn": ...}}`` so a
    checkpoint carries its log position atomically with its pages.
    """
    ctx = index.ctx
    manifest: Dict[str, Any] = {
        "version": MANIFEST_VERSION,
        "kind": index.name,
        "segments": {
            "page_ids": list(ctx.segments.page_ids),
            "count": len(ctx.segments),
        },
        "params": index.params(),
        **index.state(),
    }
    if extra:
        for key in extra:
            if key in manifest:
                raise SnapshotError(f"extra manifest key {key!r} collides")
        manifest.update(extra)
    ctx.pool.flush()
    inventories = index.page_inventories()
    if hasattr(dest, "write"):
        return dump_database(ctx.disk, dest, manifest, ctx.pool, inventories)
    with open(dest, "wb") as fh:
        return dump_database(ctx.disk, fh, manifest, ctx.pool, inventories)


def open_index(
    src: Union[str, os.PathLike, BinaryIO],
    pool_pages: int = 16,
    policy: Optional[ReplacementPolicy] = None,
):
    """Reopen a snapshot written by :func:`save_index` as a live index.

    The returned index is immediately queryable: no segment is
    re-inserted, no page is allocated and none is written. It owns a
    fresh :class:`~repro.storage.context.StorageContext` (cold buffer
    pool, zeroed logical counters) over the reloaded disk.
    """
    if hasattr(src, "read"):
        disk, manifest = load_snapshot(src)
    else:
        with open(src, "rb") as fh:
            disk, manifest = load_snapshot(fh)
    if manifest is None:
        raise SnapshotError(
            "snapshot has no index manifest (written by dump_database "
            "rather than save_index?)"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise SnapshotError(f"unsupported manifest version {manifest.get('version')!r}")
    cls = STRUCTURES.get(manifest.get("kind"))
    if cls is None:
        raise SnapshotError(f"unknown index kind {manifest.get('kind')!r} in manifest")
    seg = manifest["segments"]
    ctx = StorageContext.from_disk(
        disk,
        pool_pages=pool_pages,
        policy=policy,
        segment_page_ids=seg["page_ids"],
        segment_count=seg["count"],
    )
    index = cls.reopen(ctx, manifest["params"], manifest)
    for owner, page_ids in index.page_inventories().items():
        for pid in sorted(page_ids):
            if not disk.is_allocated(pid):
                raise SnapshotError(
                    f"{owner} page {pid} is missing from the snapshot"
                )
    return index


def empty_index_like(index, ctx: StorageContext):
    """A fresh, empty index of the same kind and construction parameters
    as ``index``, over the caller's new :class:`StorageContext`.

    The shard rebalancer uses this to build each child of a split: same
    capacity/split-rule/threshold/world as the parent, zero entries.
    """
    return type(index).reopen(ctx, index.params())


def snapshot_info(src: Union[str, os.PathLike, BinaryIO]) -> Dict[str, Any]:
    """Read only the manifest of a snapshot (no page decoding)."""
    if hasattr(src, "read"):
        manifest = read_header(src).get("manifest")
    else:
        with open(src, "rb") as fh:
            manifest = read_header(fh).get("manifest")
    if manifest is None:
        raise SnapshotError("snapshot has no index manifest")
    return manifest
