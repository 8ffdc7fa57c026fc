"""``repro.shard``: the sharded map service.

The grid is split into contiguous Hilbert-key ranges
(:class:`~repro.shard.manifest.ShardMap`); each range is served by a full
durable store + query engine worker (:mod:`repro.shard.worker`) behind
the threaded server's v1 JSON lines, and a scatter-gather router
(:mod:`repro.shard.router`) presents the set as one map server: the
asyncio server (:mod:`repro.aio`), v1 lines and v2 frames after the
upgrade.
Rebalancing (:mod:`repro.shard.rebalance`) splits a hot shard through
the checkpoint/WAL machinery and swaps the manifest epoch atomically.
"""

from importlib import import_module

#: Where each public name lives. Nothing is imported until a name is
#: first read: a shard worker (``serve_shard``), which serves from the
#: threaded server, never loads the router and with it asyncio.
_EXPORTS = {
    "DEFAULT_ORDER": "manifest",
    "SHARD_MAP_NAME": "manifest",
    "ShardMap": "manifest",
    "ShardSpec": "manifest",
    "cell_weights": "manifest",
    "catch_up_shard": "rebalance",
    "split_shard": "rebalance",
    "RouterCore": "router",
    "ShardClient": "router",
    "ShardRouter": "router",
    "merge_id_lists": "router",
    "merge_nearest": "router",
    "LocalShardSet": "worker",
    "ShardEngine": "worker",
    "init_shard_set": "worker",
    "open_shard": "worker",
    "read_addr": "worker",
    "serve_shard": "worker",
    "write_addr": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)
