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

Every row of :data:`repro.core.STRUCTURES` declares ``state()``, so
every structure is snapshottable; nothing here knows one kind from
another.
"""

from __future__ import annotations

import contextlib
import os
import struct
from typing import Any, BinaryIO, Dict, Optional, Tuple, Union

from repro.core import STRUCTURES
from repro.errors import SnapshotError
from repro.storage.codec import dump_database, load_pages, read_header
from repro.storage.context import StorageContext
from repro.wal.store import atomic_publish

MANIFEST_VERSION = 1


def stream(target: Union[str, os.PathLike, BinaryIO]):
    """``target`` as a context manager to read from: a path is opened
    (and closed), a caller's own stream is passed through and left open."""
    if isinstance(target, (str, os.PathLike)):
        return open(target, "rb")
    return contextlib.nullcontext(target)


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
    whose ``state()`` cannot be written (a PMR built with
    ``store_bboxes=True``), and ``CodecError`` for a node its page cannot
    hold. A path ``dest`` is replaced all or nothing
    (:func:`~repro.wal.store.atomic_publish`): a refused save leaves the
    file that was there untouched. A stream ``dest`` (the checkpoint's
    own temp file) is written in place.

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
    if isinstance(dest, (str, os.PathLike)):
        target = atomic_publish(os.fspath(dest))
    else:
        target = contextlib.nullcontext(dest)
    with target as fh:
        return dump_database(ctx.disk, fh, manifest, ctx.pool, inventories)


def load_index(
    fh: BinaryIO,
    header: Dict[str, Any],
    pool_pages: int = 16,
) -> Tuple[Any, list]:
    """Judge a snapshot by its ``header``, then bind the page area ``fh``
    stands at: ``(index, findings)``, the index ``None`` exactly when a
    finding is an error. The header rules are the only conditions under
    which a snapshot is not opened (pages the loader cannot follow are
    their FS01); the deep page walk is ``check``'s alone."""
    from repro.analysis.findings import error, has_errors
    from repro.analysis.fsck_storage import FS01, check_snapshot_header

    findings = check_snapshot_header(header)
    if has_errors(findings):
        return None, findings
    manifest = header["manifest"]
    try:
        ctx = StorageContext.from_disk(
            load_pages(fh, header),
            pool_pages=pool_pages,
            segment_page_ids=manifest["segments"]["page_ids"],
            segment_count=manifest["segments"]["count"],
        )
        index = STRUCTURES[manifest["kind"]].reopen(ctx, manifest["params"], manifest)
    except (ValueError, KeyError, TypeError) as exc:
        detail = f"the pages cannot be loaded as the header describes them: {exc}"
        return None, findings + [error(FS01, None, "pages", detail)]
    return index, findings


def opened(index, findings):
    """:func:`load_index`'s index, or ``SnapshotError`` with its findings."""
    from repro.analysis.findings import format_findings

    if index is None:
        raise SnapshotError(format_findings(findings, "snapshot cannot be opened"))
    return index


def open_index(src: Union[str, os.PathLike, BinaryIO], pool_pages: int = 16):
    """Reopen a snapshot written by :func:`save_index` as a live index.

    The returned index is immediately queryable: no segment is
    re-inserted, no page is allocated and none is written. It owns a
    fresh :class:`~repro.storage.context.StorageContext` (cold buffer
    pool, zeroed logical counters) over the reloaded disk. Refuses
    (:class:`~repro.errors.SnapshotError` carrying the findings) exactly
    when ``check`` reports a header-rule error.
    """
    with stream(src) as fh:
        return opened(*load_index(fh, read_header(fh), pool_pages))


def empty_index_like(index, ctx: StorageContext):
    """A fresh, empty index of the same kind and construction parameters
    as ``index``, over the caller's new :class:`StorageContext`.

    The shard rebalancer uses this to build each child of a split: same
    capacity/split-rule/threshold/world as the parent, zero entries.
    """
    return type(index).reopen(ctx, index.params())


def snapshot_sizes(path: str, segments: int) -> Dict[str, Any]:
    """How a snapshot file's bytes split (reports only)."""
    with open(path, "rb") as fh:
        header_bytes = 4 + struct.unpack("<I", fh.read(4))[0]
    size = os.path.getsize(path)
    return {
        "header_bytes": header_bytes,
        "page_area_bytes": size - header_bytes,
        "bytes_per_segment": round(size / max(1, segments), 2),
    }


def snapshot_info(src: Union[str, os.PathLike, BinaryIO]) -> Dict[str, Any]:
    """Read only the manifest of a snapshot (no page decoding)."""
    with stream(src) as fh:
        manifest = read_header(fh).get("manifest")
    if manifest is None:
        raise SnapshotError("snapshot has no index manifest")
    return manifest
