"""The shard router behind the asyncio front end.

:class:`AsyncShardRouter` is an :class:`~repro.aio.server.AsyncMapServer`
whose protocol target is the *same* :class:`~repro.shard.router.RouterCore`
the threaded router serves -- scatter, merge, drain gate, reload, partial
results: one implementation, now reachable over v1 lines *and* v2
frames. A pipelining client can hold thousands of routed requests in
flight on one connection; each one still fans out to the shard workers
over the core's blocking client pool (no routed request is ever short:
the async server runs them all on its executor, which is exactly where
blocking scatter belongs). Routed
requests have no LSN to defer -- durability lives in the shard workers --
so the server never engages its group committer.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.aio.server import AsyncMapServer
from repro.shard.router import RouterCore


class AsyncShardRouter(AsyncMapServer):
    """Scatter-gather router served by the asyncio event loop."""

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 5.0,
    ) -> None:
        self.core = RouterCore(root, timeout=timeout)
        super().__init__(self.core, host=host, port=port)

    async def shutdown(self) -> None:
        await super().shutdown()
        self.core.close_clients()

    # Conveniences mirroring the threaded router's surface.
    @property
    def shard_map(self):
        return self.core.shard_map

    @property
    def clients(self):
        return self.core.clients

    def reload(self) -> Dict[str, Any]:
        return self.core.reload()
