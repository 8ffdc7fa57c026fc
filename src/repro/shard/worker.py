"""One shard: a full durable engine that indexes only its own region.

Every shard worker is an ordinary :class:`~repro.wal.store.DurableStore`
plus a :class:`ShardEngine` behind the standard JSON wire protocol
(:class:`~repro.service.server.MapServer`) -- the process split adds no
new protocol. The sharding contract is **replicated table, partitioned
index**:

* The segment *table* is identical in every shard: the router fans every
  insert to all shards, each appends in the same order, so positional
  seg_ids agree globally. That is what makes the router's cross-shard
  dedup (and delete routing) by seg_id sound.
* The *index* holds only segments whose bounding box touches the
  shard's Hilbert-cell region, so queries and their counters scale down
  with the shard, which is the point of sharding.

Recovery honours the same split: the WAL logs every mutation (the table
is rebuilt in full) while :func:`repro.wal.store.replay_records` gets
the shard's ownership predicate as ``index_filter`` so replay re-indexes
only the shard's own segments.

Workers bind an ephemeral port and publish ``{"host", "port", "pid"}``
in ``shard.addr`` inside their store directory; the router re-reads the
file on every reconnect, so a worker restarted on a new port is found
without touching the manifest.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.core import STRUCTURES
from repro.core.interface import WORLD_SIZE
from repro.geometry import Rect
from repro.obs.metrics import MetricsRegistry
from repro.service.engine import QueryEngine
from repro.service.server import MapServer
from repro.shard.manifest import ShardMap, cell_weights
from repro.storage.context import StorageContext
from repro.wal.store import DurableStore, atomic_publish, open_durable

SHARD_ADDR_NAME = "shard.addr"


class ShardEngine(QueryEngine):
    """A :class:`QueryEngine` that indexes only its shard's region.

    ``covers`` is the ownership predicate (a :class:`Rect` -> bool over
    the shard's Hilbert-cell union). Inserts always append to the table
    and always hit the WAL -- keeping positional ids and replay in
    lockstep with every other shard -- but only owned segments are
    indexed. Deletes of segments another shard owns are logged no-ops
    returning ``False`` (the single-node engine would raise
    ``unknown_seg``; the router restores that behaviour when *no* shard
    deleted).
    """

    def __init__(self, index, shard_id: str, covers, **kwargs: Any) -> None:
        super().__init__(index, **kwargs)
        self.shard_id = shard_id
        self.covers = covers

    def _owns(self, segment) -> bool:
        return self.covers(segment.mbr())

    def _unindex(self, seg_id: int) -> bool:
        try:
            return super()._unindex(seg_id)
        except KeyError:
            return False  # not locally indexed: a peer owns it

    def stats(self) -> dict:
        out = super().stats()
        out["shard"] = {"id": self.shard_id}
        return out


# ----------------------------------------------------------------------
# Shard-set construction
# ----------------------------------------------------------------------
def init_shard_set(
    root: str,
    structure: str,
    map_data=None,
    n_shards: int = 4,
    order: Optional[int] = None,
    world_size: Optional[float] = None,
    page_size: int = 1024,
    pool_pages: int = 16,
) -> ShardMap:
    """Create a shard set: the manifest plus one durable store per shard.

    With ``map_data`` every shard's table is loaded with the *full*
    segment list (replicated-table contract) and its index with the
    shard's own region; the partition is weighted by per-cell segment
    counts so shards start balanced. Without it the shards are empty and
    the curve is split into equal cell counts.
    """
    from repro.shard.manifest import DEFAULT_ORDER

    root = os.fspath(root)
    if structure not in STRUCTURES:
        raise ValueError(
            f"shard sets serve one of {list(STRUCTURES)}, got {structure!r}"
        )
    if os.path.exists(ShardMap.path(root)):
        raise FileExistsError(f"{root} already holds a shard map")
    if order is None:
        order = DEFAULT_ORDER
    if world_size is None:
        world_size = map_data.world_size if map_data is not None else None
    weights = None
    if map_data is not None:
        weights = cell_weights(
            map_data.segments, order, world_size=world_size
        )
    if world_size is None:
        world_size = WORLD_SIZE
    smap = ShardMap.partition(
        n_shards, order=order, world_size=world_size, weights=weights
    )
    cls = STRUCTURES[structure]
    world = cls.extent_params(Rect(0.0, 0.0, world_size, world_size))
    for spec in smap.shards:
        ctx = StorageContext.create(page_size=page_size, pool_pages=pool_pages)
        index = cls(ctx, **world)
        if map_data is not None:
            seg_ids = ctx.load_segments(map_data.segments)
            for seg_id in seg_ids:
                seg = ctx.segments.peek(seg_id)
                if smap.covers(spec, seg.mbr()):
                    index.insert(seg_id)
        DurableStore.create(smap.store_path(root, spec.shard_id), index).close()
    smap.save(root)
    return smap


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def addr_path(store_root: str) -> str:
    return os.path.join(os.fspath(store_root), SHARD_ADDR_NAME)


def write_addr(store_root: str, host: str, port: int) -> str:
    """Publish the worker's address atomically next to its store."""
    path = addr_path(store_root)
    with atomic_publish(path) as fh:
        fh.write(json.dumps({"host": host, "port": port, "pid": os.getpid()}).encode())
    return path


def read_addr(store_root: str) -> Dict[str, Any]:
    with open(addr_path(store_root), "r", encoding="utf-8") as fh:
        return json.load(fh)


def open_shard(root: str, shard_id: str):
    """Recover one shard's store and wrap it in a :class:`ShardEngine`.

    Returns ``(shard_map, engine)``. Recovery passes the shard's
    ownership predicate to the WAL replay, so the rebuilt index holds
    exactly the shard's region even though the log records every
    mutation. Each engine gets its own metrics registry, so several
    shards hosted in one process (tests, the benchmark) keep their
    exports separate. Refuses with ``ValueError`` carrying the findings
    when ``check --shards`` reports SH01 or, for this shard, SH02; the
    store itself is then :func:`~repro.wal.store.open_durable`'s to judge.
    """
    from repro.analysis.findings import format_findings, has_errors
    from repro.analysis.fsck_shards import shard_findings

    smap, findings = shard_findings(root, shard_id)
    if has_errors(findings):
        raise ValueError(
            format_findings(findings, f"shard {shard_id} of {root} cannot be opened")
        )
    spec = smap.shard(shard_id)
    store = open_durable(
        smap.store_path(root, shard_id), index_filter=smap.index_filter(shard_id)
    )
    engine = ShardEngine(
        store.index,
        shard_id,
        covers=lambda rect: smap.covers(spec, rect),
        store=store,
        registry=MetricsRegistry(),
    )
    return smap, engine


def serve_shard(
    root: str, shard_id: str, host: str = "127.0.0.1", port: int = 0
) -> MapServer:
    """Open a shard and bind its server (not yet serving).

    The bound address is published to ``shard.addr``; call
    ``serve_forever()`` (the CLI worker) or ``start_background()``
    (tests and the in-process harness) on the returned server. Its
    ``server_close()`` severs every live connection, so a stopped worker
    looks to the router exactly like a killed process.
    """
    smap, engine = open_shard(root, shard_id)
    server = MapServer(engine, host=host, port=port)
    bound_host, bound_port = server.address
    write_addr(smap.store_path(root, shard_id), bound_host, bound_port)
    return server


class LocalShardSet:
    """Every shard of a set served in this process, one thread each.

    The tests (the routed counter baseline among them) use this instead
    of real worker processes: same stores, same wire protocol over loopback TCP,
    deterministic lifetime. Use as a context manager.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self.servers: Dict[str, MapServer] = {}

    def __enter__(self) -> "LocalShardSet":
        smap = ShardMap.load(self.root)
        for spec in smap.shards:
            self.start(spec.shard_id)
        return self

    def start(self, shard_id: str) -> MapServer:
        server = serve_shard(self.root, shard_id)
        server.start_background()
        self.servers[shard_id] = server
        return server

    def stop(self, shard_id: str) -> None:
        server = self.servers.pop(shard_id)
        server.stop()  # joins the accept thread: no lingering server thread
        server.engine.store.close()

    def __exit__(self, *exc: Any) -> None:
        for shard_id in list(self.servers):
            self.stop(shard_id)
