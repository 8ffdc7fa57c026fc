"""``repro.shard``: the sharded map service.

The grid is split into contiguous Hilbert-key ranges
(:class:`~repro.shard.manifest.ShardMap`); each range is served by a full
durable store + query engine worker (:mod:`repro.shard.worker`) behind
the ordinary JSON wire protocol, and a scatter-gather router
(:mod:`repro.shard.router`) presents the set as one map server.
Rebalancing (:mod:`repro.shard.rebalance`) splits a hot shard through
the checkpoint/WAL machinery and swaps the manifest epoch atomically.
"""

from repro.shard.manifest import (
    DEFAULT_ORDER,
    SHARD_MAP_NAME,
    ShardMap,
    ShardSpec,
    cell_weights,
)
from repro.shard.rebalance import catch_up_shard, split_shard
from repro.shard.router import (
    RouterCore,
    ShardClient,
    ShardRouter,
    merge_id_lists,
    merge_nearest,
)
from repro.shard.worker import (
    LocalShardSet,
    ShardEngine,
    init_shard_set,
    open_shard,
    read_addr,
    serve_shard,
    write_addr,
)

__all__ = [
    "DEFAULT_ORDER",
    "SHARD_MAP_NAME",
    "LocalShardSet",
    "RouterCore",
    "ShardClient",
    "ShardEngine",
    "ShardMap",
    "ShardRouter",
    "ShardSpec",
    "catch_up_shard",
    "cell_weights",
    "init_shard_set",
    "merge_id_lists",
    "merge_nearest",
    "open_shard",
    "read_addr",
    "serve_shard",
    "split_shard",
    "write_addr",
]
