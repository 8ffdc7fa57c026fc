"""Checkpointed rebalancing: split a hot shard, catch up a lagging one.

Both operations work on the durable state on disk and end with an
atomic manifest swap (epoch + 1 for a split), so the running router
picks up the new world with one ``{"op": "reload"}`` -- the drain gate
in :class:`~repro.shard.router.RouterCore`, which the router serves,
guarantees no request is in flight across the swap.

**Split** (:func:`split_shard`): the parent's Hilbert range is cut at
the weighted midpoint (per-cell live-segment counts), and each child is
materialized through the existing durability machinery: reopen the
parent's *snapshot*, copy the replicated table, index the child's own
region, then :func:`~repro.wal.store.replay_records` the parent's WAL
suffix with the child's ownership predicate as ``index_filter`` --
exactly the recovery path, pointed at a narrower region. Each child
becomes a fresh :class:`~repro.wal.store.DurableStore` based at the
parent's last LSN -- continuing the lineage keeps every shard's log
numbered by the same global mutation stream, which is what makes
catch-up's LSN comparisons sound. The parent's directory is left
behind, unreferenced by the new manifest.

**Catch-up** (:func:`catch_up_shard`): the replicated-table contract
means every shard logs the *same* mutation stream, so per-shard LSNs
are comparable. A worker that was down while the router kept applying
mutations is behind by exactly the donor records with
``lsn > target.last_lsn``. Those records are re-logged into the target's
WAL (same LSNs, by construction) and replayed with the target's region
filter. The donor must not have checkpointed past the target's LSN --
folding the log destroys the catch-up suffix, the classic reason
replicated logs are retained until every replica acks.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.errors import WalError
from repro.geometry import Rect
from repro.service.snapshot import empty_index_like, open_index
from repro.shard.manifest import ShardMap, cell_weights
from repro.storage.context import StorageContext
from repro.wal.records import InsertRecord
from repro.wal.store import DurableStore, open_durable, replay_records, sound_store


def split_shard(
    root: str,
    shard_id: str,
    pool_pages: int = 16,
    group_commit: int = 1,
) -> Dict[str, Any]:
    """Split ``shard_id`` into two children and swap in the new epoch.

    Run against the on-disk store while the worker for ``shard_id`` is
    stopped (its WAL must be quiescent); other workers keep serving.
    After the manifest swap, start workers for the children and send the
    router ``{"op": "reload"}``.
    """
    root = os.fspath(root)
    smap = ShardMap.load(root)
    smap.shard(shard_id)  # raises KeyError for an unknown shard
    parent_root = smap.store_path(root, shard_id)
    parent = sound_store(parent_root)
    paths = DurableStore.paths(parent_root)
    snap_index = open_index(paths["snapshot"], pool_pages=pool_pages)
    table = snap_index.ctx.segments
    world = Rect(0.0, 0.0, smap.world_size, smap.world_size)
    live = sorted(set(snap_index.candidate_ids_in_rect(world)))
    weights = cell_weights(
        [table.peek(sid) for sid in live], smap.order, smap.world_size
    )
    new_map = smap.split(shard_id, weights=weights)
    parent_ids = {s.shard_id for s in smap.shards}
    children = [s for s in new_map.shards if s.shard_id not in parent_ids]

    results = []
    for child in children:
        ctx = StorageContext.create(
            page_size=snap_index.ctx.page_size, pool_pages=pool_pages
        )
        child_index = empty_index_like(snap_index, ctx)
        for seg_id in range(len(table)):
            ctx.segments.append(table.peek(seg_id))
        covers = new_map.index_filter(child.shard_id)
        for seg_id in live:
            if covers(seg_id, table.peek(seg_id)):
                child_index.insert(seg_id)
        replay = replay_records(
            child_index,
            parent.suffix,
            parent.checkpoint_lsn,
            index_filter=covers,
        )
        store = DurableStore.create(
            new_map.store_path(root, child.shard_id),
            child_index,
            group_commit=group_commit,
            base_lsn=parent.last_lsn,
        )
        store.close()
        results.append(
            {
                "id": child.shard_id,
                "range": [child.lo, child.hi],
                "indexed": child_index.entry_count(),
                "replayed_records": replay.replayed_records,
            }
        )
    new_map.save(root)
    return {
        "parent": shard_id,
        "children": results,
        "epoch": new_map.epoch,
        "retired_store": parent_root,
    }


def catch_up_shard(
    root: str,
    shard_id: str,
    donor: Optional[str] = None,
    pool_pages: int = 16,
    group_commit: int = 1,
    checkpoint: bool = True,
) -> Dict[str, Any]:
    """Replay a lagging shard's missed mutations from a peer's WAL.

    Run while the worker for ``shard_id`` is stopped. ``donor`` defaults
    to the peer with the highest last LSN. The donor's records above the
    target's last LSN are appended to the target's own WAL (the
    replicated stream means the LSNs line up exactly) and applied with
    the target's region filter; ``checkpoint=True`` folds the result so
    the next open is clean.
    """
    root = os.fspath(root)
    smap = ShardMap.load(root)
    smap.shard(shard_id)
    target_root = smap.store_path(root, shard_id)
    if donor is None:
        peers = [s.shard_id for s in smap.shards if s.shard_id != shard_id]
        if not peers:
            raise ValueError("a single-shard set has no donor to catch up from")
        donor = max(
            peers,
            key=lambda sid: sound_store(smap.store_path(root, sid)).last_lsn,
        )
    elif donor == shard_id:
        raise ValueError("a shard cannot donate to itself")
    donor_state = sound_store(smap.store_path(root, donor))
    donor_checkpoint, donor_records = donor_state.checkpoint_lsn, donor_state.suffix

    store = open_durable(
        target_root,
        pool_pages=pool_pages,
        group_commit=group_commit,
        index_filter=smap.index_filter(shard_id),
    )
    try:
        behind_from = store.last_lsn
        needed = [r for r in donor_records if r.lsn > behind_from]
        if donor_checkpoint > behind_from:
            # Even with an empty log suffix the donor is ahead: records
            # in (behind_from, donor_checkpoint] were folded into its
            # snapshot and cannot be replayed.
            raise WalError(
                f"donor {donor} checkpointed at LSN {donor_checkpoint}, past "
                f"the target's LSN {behind_from}: the catch-up records were "
                f"folded away (checkpoint only when all shards are caught up)"
            )
        for record in needed:
            if isinstance(record, InsertRecord):
                lsn = store.log_insert(record.seg_id, record.segment)
            else:
                lsn = store.log_delete(record.seg_id)
            if lsn != record.lsn:
                raise WalError(
                    f"catch-up LSN skew: donor record {record.lsn} landed at "
                    f"{lsn}; the shard logs have diverged beyond catch-up"
                )
        store.commit()
        replay = replay_records(
            store.index,
            needed,
            behind_from,
            index_filter=smap.index_filter(shard_id),
        )
        folded = store.checkpoint() if checkpoint and needed else None
    finally:
        store.close()
    return {
        "shard": shard_id,
        "donor": donor,
        "behind_from_lsn": behind_from,
        "caught_up_records": len(needed),
        "indexed": replay.inserted,
        "checkpoint": folded,
    }
