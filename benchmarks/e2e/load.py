"""The closed-loop load generator and the statistics of a timed phase.

Load comes from this one process: ``connections`` wire-v2 connections
(:class:`repro.aio.AsyncMapClient`), each keeping ``depth`` requests in
flight. It is a closed loop -- a slot asks again only after its reply
arrived, as a map client does -- so a slower system is offered less load
and nothing queues without bound.

A timed phase is cut into equal consecutive slices of about a second.
Before and after each slice the load stops and the reference service is
sampled (``reference.py``), and the slice's ops/s and latencies are
corrected to the fixed host speed. Every reported timing is then the
quartile *on the good side* of its per-slice values (:func:`steady`): a
neighbour on the host only ever slows a slice down, so the good quartile
-- what the program does in the quietest quarter of the run -- moves less
from run to run than the median does, while a change to the program moves
every slice and so moves it just the same.
"""

from __future__ import annotations

import asyncio
import dataclasses
import statistics
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.aio import AsyncMapClient
from repro.geometry import Segment

from .reference import Reference, factor
from .streams import DeleteFiller, Request

#: ``(completion time, latency in seconds, "read" | "insert" | "delete")``.
Sample = Tuple[float, float, str]


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def steady(values: Iterable[float], better: str) -> float:
    """The quartile on the good side of a run's per-slice values: the
    upper one of a rate, the lower one of a latency."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0]
    lower, _, upper = statistics.quantiles(ordered, n=4)
    return upper if better == "higher" else lower


@dataclasses.dataclass
class Slice:
    """One slice of a timed phase: the latencies of what completed in
    it (sorted), how long it took to the last reply, and the factor that
    corrects it to the fixed host speed."""

    latencies: List[float]
    seconds: float
    factor: float


def slice_summary(slices: Sequence[Slice]) -> Dict[str, Any]:
    """ops/s, p50 and p99 of a timed phase: each slice's value at the
    fixed host speed, then the good-side quartile over the slices; and
    the same uncorrected (``raw_*``), for the record."""
    slices = [s for s in slices if s.latencies]
    if not slices:
        raise RuntimeError("no request completed inside the timed phase")
    out: Dict[str, Any] = {
        "samples": sum(len(s.latencies) for s in slices),
        "samples_per_slice": min(len(s.latencies) for s in slices),
    }
    for prefix, factors in (("", [s.factor for s in slices]), ("raw_", [1.0] * len(slices))):
        out[prefix + "ops_per_s"] = steady(
            (len(s.latencies) / s.seconds * f for s, f in zip(slices, factors)), "higher")
        for name, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
            out[prefix + name] = steady(
                (quantile(s.latencies, q) / f for s, f in zip(slices, factors)), "lower") * 1e3
    return out


def percentile_ms(samples: Sequence[Sample], kinds: Tuple[str, ...], q: float) -> float:
    picked = sorted(lat for _, lat, kind in samples if kind in kinds)
    return quantile(picked, q) * 1e3 if picked else 0.0


class LoadSession:
    """Connections to one server and the bookkeeping of what it acked."""

    def __init__(self, address: Tuple[str, int], streams: Sequence[Iterator[Request]],
                 depth: int, fallback: Request) -> None:
        self.address = address
        self.streams = list(streams)
        self.depth = depth
        self.fallback = fallback
        self.clients: List[AsyncMapClient] = []
        self.fillers = [DeleteFiller() for _ in self.streams]
        self.samples: List[Sample] = []
        self.attempted = 0
        self.failed = 0
        self.overloaded = 0
        self.failures: List[str] = []
        #: Acknowledged mutations, for the oracle's live list.
        self.inserted: Dict[int, Segment] = {}
        self.deleted: List[int] = []

    async def connect(self) -> None:
        for _ in self.streams:
            self.clients.append(await AsyncMapClient.connect(self.address, timeout=30.0))

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    async def ask(self, request: Request) -> Any:
        """One request outside any phase (``stats``, oracle re-asks)."""
        return await self.clients[0].request(request)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    async def _slot(self, conn: int, stop: "_Stop") -> None:
        client, filler, stream = self.clients[conn], self.fillers[conn], self.streams[conn]
        while stop.take():
            request = filler.fill(next(stream), self.fallback)
            op = request["op"]
            self.attempted += 1
            start = time.perf_counter()
            try:
                response = await client.request(request)
            except (ConnectionError, OSError) as exc:
                self._fail(f"{op}: {exc!r}")
                return
            done = time.perf_counter()
            if not response.get("ok"):
                code = (response.get("error") or {}).get("code")
                if code == "server_overloaded":
                    self.overloaded += 1
                self._fail(f"{request!r} -> {response!r}")
                continue
            if op == "insert":
                seg_id = response["result"]
                filler.acked_insert(seg_id)
                self.inserted[seg_id] = Segment(
                    request["x1"], request["y1"], request["x2"], request["y2"]
                )
            elif op == "delete":
                self.deleted.append(request["seg_id"])
            kind = op if op in ("insert", "delete") else "read"
            self.samples.append((done, done - start, kind))

    async def run(self, count: Optional[int] = None, seconds: Optional[float] = None
                  ) -> Tuple[float, float]:
        """One phase: ``count`` requests, or ``seconds`` of them. Every
        slot drains before this returns; gives the phase's ``(t0, t1)``
        -- for a timed phase t1 is the deadline, not the drain."""
        t0 = time.perf_counter()
        stop = _Stop(count, None if seconds is None else t0 + seconds)
        await asyncio.gather(*(
            self._slot(conn, stop)
            for conn in range(len(self.clients))
            for _ in range(self.depth)
        ))
        return t0, (t0 + seconds if seconds is not None else time.perf_counter())

    async def timed(self, reference: Reference, seconds: float, slice_seconds: float,
                    reference_seconds: float) -> List[Slice]:
        """The timed phase: ``seconds`` of load in slices of about
        ``slice_seconds`` (at least four), the reference sampled for
        ``reference_seconds`` around each while the system is idle."""
        n = max(4, round(seconds / slice_seconds))
        rates = [await reference.rate(reference_seconds)]
        slices: List[Slice] = []
        for _ in range(n):
            first = len(self.samples)
            start, _ = await self.run(seconds=seconds / n)
            elapsed = time.perf_counter() - start  # to the last reply: the slots drain
            rates.append(await reference.rate(reference_seconds))
            slices.append(Slice(sorted(s[1] for s in self.samples[first:]), elapsed,
                                factor(rates[-2:])))
        return slices


class _Stop:
    """When a phase's slots stop asking: after N requests or at a time."""

    def __init__(self, count: Optional[int], deadline: Optional[float]) -> None:
        self.count = count
        self.deadline = deadline
        self.issued = 0

    def take(self) -> bool:
        """Claim the phase's next request, if it has one left."""
        if self.count is not None and self.issued >= self.count:
            return False
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            return False
        self.issued += 1
        return True
