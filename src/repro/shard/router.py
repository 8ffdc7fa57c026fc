"""The scatter-gather router: one wire endpoint over N shard workers.

``python -m repro route`` serves the same wire protocol as ``serve``
(v1 newline JSON, and v2 frames after the upgrade), but
behind it sits a shard set. Every request takes one path:
:data:`ROUTES` says which shards it touches and how their answers fold,
:meth:`RouterCore._scatter` sends the legs concurrently,
:meth:`RouterCore._gather` merges them or raises. The table, as the
code states it:

==========  ==========================  ===========================  =========
op          shards                      merge of the ok answers      partial
==========  ==========================  ===========================  =========
point       regions holding the point   sorted union of seg_ids      merged
window      regions meeting the rect    sorted union of seg_ids      merged
nearest     all                         min d2 per seg_id, k best    merged
insert      all (replicated table)      the one seg_id all agree on  applied
delete      all (replicated table)      any true; none: unknown_seg  applied
checkpoint  all                         result per shard             merged
explain     the inner query's shards    summed bill, plan per shard  merged
batch       per member, as above; all   the member's row, by         as its
            for every member once one   position                     members
            member writes
==========  ==========================  ===========================  =========

* The id union is the cross-process form of the R+ / PMR duplication
  story: a boundary segment indexed by both neighbours appears once.
* The union of local top-k holds the global top-k: each global winner
  is indexed somewhere with a local rank no worse than its global rank.
* Writes go everywhere so every table appends in lockstep and positional
  seg_ids agree; a batch carrying one write sends the whole batch
  everywhere, keeping barrier positions identical on every table.
* ``stats`` / ``check`` / ``metrics`` / ``health`` / ``trace`` ask every
  shard and lay the answers side by side (counters summed so per-shard
  totals add up to the routed totals exactly, Prometheus expositions
  relabelled ``shard="<id>"`` and concatenated) with the unreachable
  shards listed, not raised.

Failure semantics: an unreachable worker never hangs the client. The
router answers ``{"ok": false, "error": {"code": "shard_unavailable",
"shard": ..., ...}}`` and, when other shards did answer, attaches
``"partial"``: their merged answer for a read (*merged* above), or
``{"applied": [shard ids]}`` for a write that now needs repair
(*applied*). Worker addresses are re-read from each shard's
``shard.addr`` on every reconnect, so a worker restarted on a new port
heals without touching the router.

Rebalance hand-off: ``{"op": "reload"}`` drains in-flight requests
(new ones block at the gate), re-reads the manifest, swaps the client
set, and reports the new epoch -- the atomic-manifest + drain protocol
the shard-split CLI relies on.
"""

from __future__ import annotations

import json
import os
import socket
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.aio.server import AsyncMapServer
from repro.errors import ERROR_CODES, ProtocolError, ShardUnavailableError
from repro.metric_names import (
    COUNTER_FIELDS,
    DISK_ACCESSES,
    DISK_READS,
)
from repro.obs import dtrace
from repro.obs.clock import clock_info, now_us, wall_now_us
from repro.obs.explain import merge_explain_reports
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILER, clamp_window, merge_profiles
from repro.obs.prom import merge_prom_texts
from repro.obs.trace import TRACER
from repro.sanitize import make_condition, make_lock
from repro.service.api import OPS, Command, parse_batch_item, parse_request
from repro.service.protocol import Envelope, Protocol, encode_json
from repro.shard.manifest import ShardMap, ShardSpec
from repro.shard.worker import read_addr


class _RelayedError(ProtocolError):
    """A structured error a shard served, re-raised router-side with the
    originating shard attached (``error_envelope`` keeps both)."""

    def __init__(
        self, shard_id: str, envelope: Optional[Dict[str, Any]]
    ) -> None:
        envelope = envelope or {}
        code = envelope.get("code", "internal")
        if code not in ERROR_CODES:
            code = "internal"
        super().__init__(
            str(envelope.get("message", "shard error")), code=code
        )
        self.shard_id = shard_id


class ShardClient:
    """One pooled connection to one shard worker.

    The address comes from the worker's ``shard.addr`` file at every
    (re)connect, so a restarted worker on a fresh port is found without
    coordination. All failures -- missing address, refused connection,
    timeout, mid-request disconnect -- surface as
    :class:`ShardUnavailableError` naming the shard.
    """

    def __init__(
        self, shard_id: str, store_root: str, timeout: float = 5.0
    ) -> None:
        self.shard_id = shard_id
        self.store_root = os.fspath(store_root)
        self.timeout = timeout
        # Serializes this one connection: request/reply framing on the
        # socket is not interleavable, so the blocking I/O below happens
        # under this lock by design. No other lock is ever taken inside.
        self._lock = make_lock(f"shard.client.{shard_id}")
        self._sock: Optional[socket.socket] = None
        self._fh = None
        #: Estimated worker-minus-router wall-clock offset (microseconds),
        #: measured by a clock round trip at connect time when tracing is
        #: on. None until measured (or when the worker predates the op);
        #: the stitcher then anchors subtrees at send time instead.
        self.skew_us: Optional[int] = None

    def _unavailable(self, why: str) -> ShardUnavailableError:
        return ShardUnavailableError(
            f"shard {self.shard_id} is unavailable: {why}", self.shard_id
        )

    def _connect(self) -> None:
        try:
            addr = read_addr(self.store_root)
            host, port = addr["host"], int(addr["port"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise self._unavailable(f"no usable address file ({exc})") from exc
        try:
            self._sock = socket.create_connection(  # repro-lint: disable=CC02 -- the client lock exists to serialize this socket; connect is bounded by self.timeout and no other lock nests inside
                (host, port), timeout=self.timeout
            )
            self._fh = self._sock.makefile("rwb")
        except OSError as exc:
            self._sock = None
            self._fh = None
            raise self._unavailable(f"connect to {host}:{port} failed ({exc})") from exc
        if TRACER.enabled:
            self._measure_skew()

    def _measure_skew(self) -> None:
        """One clock round trip, midpointed: the worker's wall offset.

        Best effort by design -- a worker that predates the ``clock`` op
        answers ``unknown_op`` and the skew stays None, which only costs
        stitching fidelity, never a request.
        """
        try:
            t0 = wall_now_us()
            reply = self._roundtrip(b'{"op":"clock"}\n')
            t1 = wall_now_us()
            envelope = json.loads(reply)
            if envelope.get("ok"):
                remote_wall = int(envelope["result"]["wall_us"])
                self.skew_us = remote_wall - (t0 + t1) // 2
        except (OSError, ValueError, KeyError, TypeError):
            self.skew_us = None

    def _drop(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                self._sock = None
        self._sock = None
        self._fh = None

    def _roundtrip(self, line: bytes) -> bytes:
        self._fh.write(line)
        self._fh.flush()
        return self._fh.readline()  # repro-lint: disable=CC02 -- socket read under the connection-serializing lock: that is the lock's whole job; bounded by the socket timeout, never nests another lock

    def request(
        self, payload: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send one request, returning the shard's response envelope.

        A pooled connection that errors or EOFs is retried once over a
        fresh connection (the worker may have restarted on a new port
        since the pool last used it); a *fresh* connection failing is
        final. The retry re-sends the payload, so a worker that applied
        a mutation and died before replying can double-apply -- that is
        a table divergence, which the seg_id agreement check and
        ``check --shards`` surface for ``shard-rebuild``.

        ``timeout`` overrides the connection timeout for this one call
        -- the ``profile`` op legitimately takes its sampling window to
        answer, which the default would cut short.
        """
        line = encode_json(payload).encode("utf-8") + b"\n"
        with self._lock:
            fresh = self._sock is None
            if fresh:
                self._connect()
            if timeout is not None:
                self._sock.settimeout(timeout)
            reply = b""
            error: Optional[OSError] = None
            try:
                reply = self._roundtrip(line)
            except OSError as exc:
                error = exc
            if not reply:
                self._drop()
                if fresh:
                    why = (
                        f"request failed ({error})"
                        if error is not None
                        else "connection closed mid-request"
                    )
                    raise self._unavailable(why) from error
                self._connect()
                if timeout is not None:
                    self._sock.settimeout(timeout)
                try:
                    reply = self._roundtrip(line)
                except OSError as exc2:
                    self._drop()
                    raise self._unavailable(
                        f"request failed after reconnect ({exc2})"
                    ) from exc2
                if not reply:
                    self._drop()
                    raise self._unavailable(
                        "connection closed mid-request after reconnect"
                    )
            if timeout is not None and self._sock is not None:
                self._sock.settimeout(self.timeout)  # restore the default
            try:
                return json.loads(reply)
            except ValueError as exc:
                self._drop()
                raise self._unavailable(f"unparseable reply ({exc})") from exc

    def close(self) -> None:
        with self._lock:
            self._drop()


# ----------------------------------------------------------------------
# The routing table: where each op goes and how its answers fold
# ----------------------------------------------------------------------
def merge_id_lists(lists: Sequence[List[int]]) -> List[int]:
    """Cross-shard dedup by seg_id: sorted union of result id lists."""
    out: set = set()
    for ids in lists:
        out.update(ids)
    return sorted(out)


def merge_nearest(
    lists: Sequence[List[Sequence[float]]], k: int
) -> List[Tuple[int, float]]:
    """Merge per-shard k-NN answers: min distance per seg_id, then the
    global ``(d2, seg_id)`` order, cut to ``k``."""
    best: Dict[int, float] = {}
    for pairs in lists:
        for seg_id, d2 in pairs:
            seg_id = int(seg_id)
            if seg_id not in best or d2 < best[seg_id]:
                best[seg_id] = d2
    ranked = sorted(best.items(), key=lambda item: (item[1], item[0]))
    return [(seg_id, d2) for seg_id, d2 in ranked[:k]]


def _merge_ids(request: Any, oks: Dict[str, Any]) -> List[int]:
    return merge_id_lists(list(oks.values()))


def _merge_seg_id(request: Command, oks: Dict[str, Any]) -> int:
    values = list(oks.values())
    if any(value != values[0] for value in values):
        raise RuntimeError(
            f"shards disagree on seg_id: {sorted(set(map(repr, values)))}; "
            f"the replicated tables have diverged (run shard-rebuild)"
        )
    return values[0]


def _merge_delete(request: Command, oks: Dict[str, Any]) -> bool:
    if any(oks.values()):
        return True
    # Every shard logged the delete but none had it indexed: the
    # segment was already gone everywhere. Single-node parity says
    # a double delete is unknown_seg.
    raise KeyError(
        f"unknown segment id {request.args['seg_id']}: not indexed on any shard"
    )


def _everywhere(smap: ShardMap, request: Any) -> List[ShardSpec]:
    return smap.shards


def _explained(smap: ShardMap, request: Command) -> List[ShardSpec]:
    query = request.args["query"]
    return ROUTES[query.op].shards(smap, query)


class Route(NamedTuple):
    """One row of :data:`ROUTES`.

    ``shards(shard_map, request)`` picks the shards a parsed request (a
    read's ``QuerySpec``, any other op's ``Command``) touches;
    ``merge(request, oks)`` folds their ok results (by shard id) into
    the routed answer. When some shard failed, a read reports the merge
    of the rest as ``partial``; an op that writes (its row of
    :data:`repro.service.api.OPS` says) reports ``{"applied": [...]}``
    instead -- there is no answer to salvage, only replicas to repair.
    """

    shards: Callable[[ShardMap, Any], List[ShardSpec]]
    merge: Callable[[Any, Dict[str, Any]], Any]


#: The one place a request meets ``ShardMap.route_*``: a standalone op,
#: an ``explain``'s inner query and each ``batch`` member all read it.
ROUTES: Dict[str, Route] = {
    "point": Route(lambda smap, q: smap.route_point(*q.to_point()), _merge_ids),
    "window": Route(lambda smap, q: smap.route_rect(q.to_rect()), _merge_ids),
    # Any shard may hold a global winner.
    "nearest": Route(
        _everywhere,
        lambda q, oks: merge_nearest(list(oks.values()), q.k),
    ),
    "insert": Route(_everywhere, _merge_seg_id),
    "delete": Route(_everywhere, _merge_delete),
    "checkpoint": Route(_everywhere, lambda q, oks: dict(sorted(oks.items()))),
    "explain": Route(_explained, lambda q, oks: merge_explain_reports(oks)),
}


def _applied(oks: Dict[str, Any]) -> Dict[str, List[str]]:
    return {"applied": sorted(oks)}


#: What a fan-out brings back, each by shard id: the results of the ok
#: envelopes, the error objects of the refusals, the transport failures.
Scattered = Tuple[
    Dict[str, Any], Dict[str, Any], Dict[str, ShardUnavailableError]
]


def _shift_spans(record: Dict[str, Any], offset: float) -> None:
    """Shift a span record and all descendants onto the router timeline.

    Worker span timestamps are relative to the worker root's monotonic
    start; adding the stitcher's offset re-expresses them relative to
    the router root, so one merged tree renders on one time axis.
    """
    record["start_us"] = record.get("start_us", 0) + offset
    for child in record.get("spans", ()):
        _shift_spans(child, offset)


class RouterCore:
    """The router's logic, transport-free: clients, gate, scatter, merge.

    It is a *target* of the protocol core
    (:mod:`repro.service.protocol`): :class:`ShardRouter` serves it over
    the asyncio server, and :meth:`respond` answers one wire line
    in-process with no socket at all. All methods here are thread-safe
    (the server's executor calls them concurrently): the drain gate is a
    condition variable and the scatter pool is shared.
    """

    def __init__(self, root: str, timeout: float = 5.0) -> None:
        self.root = os.fspath(root)
        self.timeout = timeout
        self.registry = MetricsRegistry()
        self._gate = make_condition("shard.router.gate")
        # Held across the fan-out of anything that writes: the tables
        # are replicas only if every shard applies concurrent mutations
        # in one order (each allocates the next seg_id as it goes).
        self._write_order = make_lock("shard.router.write_order")
        self._active = 0
        self._draining = False
        self.shard_map: ShardMap = ShardMap.load(self.root)
        self.clients: Dict[str, ShardClient] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._build_clients()
        self.protocol = Protocol(self)

    def _build_clients(self) -> None:
        smap = self.shard_map
        self.clients = {
            spec.shard_id: ShardClient(
                spec.shard_id,
                smap.store_path(self.root, spec.shard_id),
                timeout=self.timeout,
            )
            for spec in smap.shards
        }
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.clients)),
            thread_name_prefix="shard-scatter",
        )
        self.registry.gauge("repro_router_shards").set(len(self.clients))
        self.registry.gauge("repro_router_epoch").set(smap.epoch)

    def close_clients(self) -> None:
        """Release every shard connection and the scatter pool."""
        for client in self.clients.values():
            client.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Drain gate and manifest reload
    # ------------------------------------------------------------------
    def _enter_gate(self) -> None:
        with self._gate:
            while self._draining:
                self._gate.wait()
            self._active += 1

    def _exit_gate(self) -> None:
        with self._gate:
            self._active -= 1
            if self._active == 0:
                self._gate.notify_all()

    def reload(self) -> Dict[str, Any]:
        """Drain in-flight requests, re-read the manifest, swap clients.

        New requests block at the gate while draining, so no request
        observes a half-swapped client set; the manifest file itself is
        replaced atomically by the writer, so the reload sees one epoch
        or the other.
        """
        with self._gate:
            self._draining = True
            while self._active > 0:
                self._gate.wait()
        try:
            old = {c for c in self.clients.values()}
            self.shard_map = ShardMap.load(self.root)
            self._build_clients()
            for client in old:
                client.close()
        finally:
            with self._gate:
                self._draining = False
                self._gate.notify_all()
        return {
            "epoch": self.shard_map.epoch,
            "shards": [s.shard_id for s in self.shard_map.shards],
        }

    # ------------------------------------------------------------------
    # Wire entry point (the protocol core's router-target surface)
    # ------------------------------------------------------------------
    def respond(self, line: Any) -> Optional[Envelope]:
        """One wire request -> one envelope; never raises, never hangs."""
        return self.protocol.respond_line(line)

    def route(self, raw: Dict[str, Any]) -> Any:
        """One decoded request through the drain gate to its result.

        ``reload`` bypasses the gate: it *is* the drainer, and entering
        the gate would deadlock on itself.

        With tracing armed the dispatch runs under a router root span:
        the root consumes the client's ``"tc"`` context the protocol
        core parked (parenting it under the caller), scatter/merge
        phases become child spans, and ``finish_trace`` parks the
        response attachment for the core to collect.
        """
        if raw.get("op") == "reload":
            return self.reload()
        self._enter_gate()
        root = error = None
        try:
            if TRACER.enabled:
                root = TRACER.start_trace(str(raw.get("op")))
            return self.dispatch(raw)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if root is not None:
                TRACER.finish_trace(root, error=error)
            self._exit_gate()

    def count_request(self, op: str, ok: bool) -> None:
        self.registry.counter(
            "repro_router_requests_total",
            op=op,
            status="ok" if ok else "error",
        ).inc()

    # ------------------------------------------------------------------
    # Scatter and gather
    # ------------------------------------------------------------------
    def _scatter(self, payloads: Dict[str, Dict[str, Any]]) -> Scattered:
        """Send each shard its payload concurrently; sort what comes back
        into ``(oks, relayed, failures)``. A fan-out of one payload
        passes ``dict.fromkeys(shard_ids, payload)``.

        Under an armed tracer every leg carries a fresh child context as
        the ``"tc"`` field, so each worker roots its local trace under
        this router span -- sampled or not, keeping the head decision
        consistent end to end -- and every leg's round trip is grafted
        into the router's root as a ``shard:<id>`` child. When the root
        *is* sampled, the fan-out sits under a ``scatter`` span and each
        wrapper holds the subtree its worker returned.
        """
        root = TRACER.current_root() if TRACER.enabled else None

        def call(shard_id: str) -> Tuple[Any, float, float]:
            payload = payloads[shard_id]
            if root is not None:
                child = dtrace.TraceContext(
                    root["trace_id"], dtrace.new_span_id(), root["sampled"]
                )
                payload = dict(payload, tc=child.to_wire())
            t0 = now_us()
            try:
                response = self.clients[shard_id].request(payload)
            except ShardUnavailableError as exc:
                response = exc
            return response, t0, now_us()

        oks: Dict[str, Any] = {}
        relayed: Dict[str, Any] = {}
        failures: Dict[str, ShardUnavailableError] = {}
        # Every leg of one fan-out is the same op.
        op = next((p.get("op") for p in payloads.values()), None)
        with TRACER.span("scatter", op=op, shards=len(payloads)):
            futures = {sid: self._pool.submit(call, sid) for sid in payloads}
            for shard_id, future in futures.items():
                response, t0, t1 = future.result()
                if isinstance(response, ShardUnavailableError):
                    failures[shard_id] = response
                    attachment = None
                else:
                    attachment = response.pop("tc", None)
                    if response.get("ok"):
                        oks[shard_id] = response.get("result")
                    else:
                        relayed[shard_id] = response.get("error")
                if root is not None:
                    self._stitch_shard(root, shard_id, t0, t1, attachment)
        return oks, relayed, failures

    def _stitch_shard(
        self,
        root: Dict[str, Any],
        shard_id: str,
        t0: float,
        t1: float,
        attachment: Any,
    ) -> None:
        """Graft one shard's round trip (and returned subtree) into the
        active trace as a ``shard:<id>`` wrapper span, its timestamps
        shifted onto the router's clock via the connect-time skew
        estimate."""
        record: Dict[str, Any] = {
            "name": f"shard:{shard_id}",
            "start_us": t0 - root["_t0"],
            "dur_us": t1 - t0,
            "attrs": {"shard": shard_id},
            "spans": [],
        }
        subtree = (
            attachment.get("span") if isinstance(attachment, dict) else None
        )
        if isinstance(subtree, dict):
            skew = self.clients[shard_id].skew_us
            if skew is not None and "wall_us" in subtree:
                # Worker wall time, de-skewed onto the router's clock,
                # relative to the router root's start.
                offset = (subtree["wall_us"] - skew) - root["wall_us"]
                record["attrs"]["skew_us"] = skew
            else:
                # No skew estimate: anchor the subtree at send time --
                # its internal shape is still exact.
                offset = record["start_us"]
            _shift_spans(subtree, offset - subtree.get("start_us", 0))
            record["spans"].append(subtree)
        TRACER.attach_subtree(record)

    def _gather(
        self, payloads: Dict[str, Dict[str, Any]], merge, writes: bool = False
    ):
        """Scatter, then merge the ok results -- or raise with the
        failing shard attached and any partial answer aboard (which
        shards applied a write; else the ``merge`` of the oks).

        A fan-out that ``writes`` runs alone, first send to last reply:
        two in flight could reach two shards in opposite orders. Reads
        never wait for it."""
        if writes:
            with self._write_order:  # repro-lint: disable=CC02 -- ordering the replicas' writes is this lock's whole job; every leg it waits on is bounded by the client timeout, and only the per-connection client locks nest inside
                scattered = self._scatter(payloads)
        else:
            scattered = self._scatter(payloads)
        oks, relayed, failures = scattered
        if failures or relayed:
            if failures:
                shard_id = min(failures)
                exc: Exception = failures[shard_id]
            else:
                shard_id = min(relayed)
                exc = _RelayedError(shard_id, relayed[shard_id])
            if oks:
                try:
                    merged = (_applied if writes else merge)(oks)
                except Exception:
                    merged = None
                exc.partial = {"shards": sorted(oks), "result": merged}
            raise exc
        with TRACER.span("merge", shards=len(oks)):
            return merge(oks)

    def _ask_all(self, payload: Dict[str, Any]) -> Scattered:
        """Ask every shard; keep the oks (sorted by shard id) and leave
        the rest to the caller to list -- an observability op reports a
        missing shard, it does not fail on one."""
        oks, relayed, failures = self._scatter(
            dict.fromkeys(self.clients, payload)
        )
        return dict(sorted(oks.items())), relayed, failures

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, raw: Dict[str, Any]) -> Any:
        op = raw.get("op")
        if op == "ping":
            return "pong"
        if op == "clock":
            return clock_info()
        # The version pin and the trace context are this hop's business;
        # each shard leg gets its own.
        raw = {k: v for k, v in raw.items() if k not in ("v", "tc")}
        if op == "profile":
            return self._merge_profile(raw)
        if op == "trace" and raw.get("trace_id") is not None:
            return self._find_trace(raw)
        request = parse_request(raw)
        route = ROUTES.get(op)
        if route is not None:
            specs = route.shards(self.shard_map, request)
            return self._gather(
                dict.fromkeys((spec.shard_id for spec in specs), raw),
                lambda oks: route.merge(request, oks),
                OPS[op].writes,
            )
        if op == "batch":
            return self._batch(**request.args)
        if op == "stats":
            return self._merge_stats()
        if op == "check":
            return self._merge_check()
        if op == "metrics":
            return self._merge_metrics(request.args["format"])
        if op in ("health", "trace"):
            oks, _relayed, failures = self._ask_all(raw)
            merged: Dict[str, Any] = {
                "shards": oks,
                "unavailable": sorted(failures),
            }
            if op == "trace" and TRACER.enabled:
                # Stitched cross-process trees live in the router's own
                # ring; surface them next to the workers' local traces.
                merged["tracing"] = TRACER.stats()
                merged["traces"] = TRACER.recent(request.args.get("n", 5))
            return merged
        raise ProtocolError(
            f"op {op!r} is not routable through the shard router",
            code="unknown_op",
        )

    def _batch(
        self, requests: List[Dict[str, Any]], order: str, use_cache: bool
    ) -> Dict[str, Any]:
        """Per-shard sub-batches out, one positional merge back.

        Each member goes where its own :data:`ROUTES` row sends it, so a
        shard executes only the members its region can answer and batch
        page traffic scales down with the clip exactly like standalone
        reads do. Member indices stay in arrival order inside each
        sub-batch, so a shard's Morton scheduling sees the same read-run
        structure the single-node executor would. One write in the
        batch sends *every* member to every shard: barrier positions
        must agree on all the replicated tables.
        """
        members = [parse_batch_item(member) for member in requests]
        rows = [ROUTES[member.op] for member in members]
        writes = any(OPS[member.op].writes for member in members)
        assignment: Dict[str, List[int]] = {}
        with TRACER.span("clip", members=len(members)):
            for idx, (member, row) in enumerate(zip(members, rows)):
                pick = _everywhere if writes else row.shards
                for spec in pick(self.shard_map, member):
                    assignment.setdefault(spec.shard_id, []).append(idx)
        payloads = {
            shard_id: {
                "op": "batch",
                "requests": [requests[i] for i in ixs],
                "order": order,
                "use_cache": use_cache,
            }
            for shard_id, ixs in assignment.items()
        }

        def merge(oks: Dict[str, Any]) -> Dict[str, Any]:
            # A member that routed to no shard merges over zero answers:
            # an empty id list, which is correct -- no shard's region
            # touches it, so no shard indexes a qualifying segment.
            answers: List[Dict[str, Any]] = [{} for _ in members]
            for shard_id, result in oks.items():
                for idx, value in zip(assignment[shard_id], result["results"]):
                    answers[idx][shard_id] = value
            return {
                "results": [
                    row.merge(member, got)
                    for row, member, got in zip(rows, members, answers)
                ],
                "order": order,
                DISK_ACCESSES: sum(r[DISK_ACCESSES] for r in oks.values()),
            }

        return self._gather(payloads, merge, writes)

    # ------------------------------------------------------------------
    # Merged observability
    # ------------------------------------------------------------------
    def _merge_stats(self) -> Dict[str, Any]:
        oks, relayed, failures = self._ask_all({"op": "stats"})
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        consistent = True
        for shard_id, stats in oks.items():
            # Slow-query log lines served through the router name their
            # originating shard, so a merged view stays attributable.
            slow = stats.get("obs", {}).get("slow_queries", {})
            for entry in slow.get("entries") or []:
                entry["shard"] = shard_id
            for name in COUNTER_FIELDS:
                totals[name] += stats["totals"][name]
            consistent = consistent and stats["counters_consistent"]
        totals[DISK_ACCESSES] = totals[DISK_READS]
        return {
            "epoch": self.shard_map.epoch,
            "order": self.shard_map.order,
            "world_size": self.shard_map.world_size,
            "shards": oks,
            "totals": totals,
            "counters_consistent": consistent,
            # A shard that cannot produce its stats is as good as absent.
            "unavailable": sorted({*failures, *relayed}),
        }

    def _merge_check(self) -> Dict[str, Any]:
        oks, relayed, failures = self._ask_all({"op": "check"})
        shards = dict(oks)
        for shard_id, error in relayed.items():
            shards[shard_id] = {"clean": False, "error": error}
        return {
            "clean": not failures
            and all(result.get("clean", False) for result in shards.values()),
            "shards": dict(sorted(shards.items())),
            "unavailable": sorted(failures),
        }

    def _merge_metrics(self, fmt: str) -> Any:
        oks, relayed, failures = self._ask_all({"op": "metrics", "format": fmt})
        if fmt != "prom":
            return {
                "shards": oks,
                "router": self.registry.render_json(),
                "unavailable": sorted(failures),
            }
        # One exposition or none: a scrape silently missing a shard's
        # series would read as that shard's counters resetting.
        if failures:
            raise failures[min(failures)]
        if relayed:
            shard_id = next(iter(relayed))
            raise _RelayedError(shard_id, relayed[shard_id])
        return merge_prom_texts({**oks, "router": self.registry.render_prom()})

    def _find_trace(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """Serve ``{"op": "trace", "trace_id": ...}``: the stitched tree.

        Stitched cross-process trees live in the *router's* ring (the
        workers hold only their local subtrees, already grafted in), so
        the router answers from its own buffer first and falls back to
        asking the shards -- a trace that was sampled on a worker but
        whose router record was evicted is still reachable.
        """
        local = TRACER.find(str(raw["trace_id"]))
        if local is not None:
            return {"trace": local, "source": "router"}
        for shard_id, result in self._ask_all(raw)[0].items():
            found = (result or {}).get("trace")
            if found is not None:
                return {"trace": found, "source": shard_id}
        return {"trace": None, "source": None}

    def _merge_profile(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """Fan the ``profile`` op out; sample the router meanwhile.

        The workers each run their own sampling window concurrently
        while the dispatching thread profiles this process (capturing
        the router's scatter threads at work), then the collapsed stacks
        merge re-rooted under ``router`` / ``shard:<id>`` labels -- one
        flamegraph across the whole shard set. That is why this is the
        one fan-out that does not go through :meth:`_scatter`, which
        would block the sampler behind the legs it is there to watch.
        """
        # Clamped before anything is submitted: the window also sizes
        # each leg's socket deadline, and no float may reach that raw.
        seconds, hz = clamp_window(raw.get("seconds", 1.0), raw.get("hz", 97))
        payload = {"op": "profile", "seconds": seconds, "hz": hz}
        # The shard call legitimately takes the whole sampling window to
        # answer; give it the window plus the usual transport allowance.
        deadline = seconds + max(self.timeout, 5.0)
        futures = {
            shard_id: self._pool.submit(client.request, payload, deadline)
            for shard_id, client in self.clients.items()
        }
        parts: Dict[str, Any] = {"router": PROFILER.run(seconds=seconds, hz=hz)}
        unavailable: List[str] = []
        for shard_id, future in sorted(futures.items()):
            try:
                response = future.result()
            except ShardUnavailableError:
                unavailable.append(shard_id)
                continue
            if response.get("ok"):
                parts[f"shard:{shard_id}"] = response["result"]
            else:
                unavailable.append(shard_id)
        merged = merge_profiles(parts)
        merged["unavailable"] = unavailable
        return merged


class ShardRouter(AsyncMapServer):
    """Scatter-gather front end over the shard set rooted at ``root``.

    The asyncio server with a :class:`RouterCore` as its protocol
    target, reachable over v1 lines and v2 frames: a pipelining client
    can hold many routed requests in flight on one connection. No routed
    request is short, so each runs on the server's executor, which is
    where blocking scatter belongs. Routed requests have no LSN to defer
    -- durability lives in the shard workers -- so the server never
    engages its group committer. Shutting down also releases the core's
    shard connections and scatter pool.
    """

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
