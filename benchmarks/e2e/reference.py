"""The reference service: what the host can do right now.

This benchmark runs on a few cores of a shared host whose speed changes
by up to 1.7x, for seconds or for many minutes, with what its neighbours
do; the same code measured ten minutes apart reads 1 300 or 2 200 ops/s
(see the README, "Noise"). No statistic of one run removes that. So
every timing is taken beside a measurement of the host itself and
reported *at a fixed host speed*.

The measure of the host is a service of the benchmark's own: a line-JSON
echo server in a child process that does a fixed piece of interpreter
work per request, and a closed loop of two connections with one request
in flight each that does a smaller piece -- sockets, wake-ups, JSON, the
event loop and Python bytecode in about the proportions of a
``serve_read`` request (~0.35 ms a round trip), and none of the program's
code, so nothing a later change to ``src/`` does can move it. (A bare
echo, all wake-ups and no work, will not do: its rate depends on which
cores the two processes happen to land on and differs by a third from
one start to the next.) Its round trips per second are sampled for a fraction of a second before
and after every slice of a timed phase (and every start of the system);
a slice measured while the reference ran at ``r`` round trips per second
has its ops/s multiplied, and its latencies divided, by
``REFERENCE_RATE / r``. On a quiet host the factor is about 1.

Run as a script it is the echo server.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from typing import Any, Callable, List, Sequence, Tuple

#: Round trips per second of the reference on the quiet host this
#: benchmark was written on. Only ratios of corrected values mean
#: anything; this constant just keeps them near the uncorrected ones.
REFERENCE_RATE = 2900.0

CONNECTIONS = 2
#: Iterations of ``_work`` per request, in the server and in the client.
SERVER_WORK = 6000
CLIENT_WORK = 2000
_MESSAGE = json.dumps({"op": "point", "x": 123.5, "y": 456.5}).encode() + b"\n"


def _work(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class Reference:
    """The client side: sample the echo server's round-trip rate."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        #: Every rate sampled, for the run's report.
        self.rates: List[float] = []

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            self.conns.append(await asyncio.open_connection(*self.address))

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            await writer.wait_closed()
        self.conns = []

    async def rate(self, seconds: float) -> float:
        """Round trips per second over ``seconds``, all connections."""
        done = 0

        async def slot(reader, writer, deadline: float) -> None:
            nonlocal done
            while time.perf_counter() < deadline:
                _work(CLIENT_WORK)
                writer.write(_MESSAGE)
                await writer.drain()
                json.loads(await reader.readline())
                done += 1

        start = time.perf_counter()
        await asyncio.gather(*(slot(r, w, start + seconds) for r, w in self.conns))
        self.rates.append(done / (time.perf_counter() - start))
        return self.rates[-1]

    def rate_now(self, seconds: float) -> float:
        """``rate`` from code that runs no event loop."""
        async def go() -> float:
            await self.open()
            try:
                return await self.rate(seconds)
            finally:
                await self.close()

        return asyncio.run(go())

    def timed_call(self, fn: Callable[[], Any], sample_seconds: float) -> Tuple[Any, float]:
        """``fn()`` between two samples of the reference: its result and
        how long it took at the fixed host speed."""
        before = self.rate_now(sample_seconds)
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, seconds / factor([before, self.rate_now(sample_seconds)])


def factor(rates: Sequence[float]) -> float:
    """What to multiply a rate by, and divide a time by, that was
    measured while the reference ran at ``rates``."""
    return REFERENCE_RATE / statistics.fmean(rates)


async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            reply = json.loads(line)
            reply["ok"] = _work(SERVER_WORK) >= 0
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()
    except ConnectionError:
        pass
    finally:
        writer.close()


async def _serve() -> None:
    server = await asyncio.start_server(_echo, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"reference echo on 127.0.0.1:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        sys.exit(0)
