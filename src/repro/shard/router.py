"""The scatter-gather router: one wire endpoint over N shard workers.

``python -m repro route`` serves the same newline-JSON protocol as a
single :class:`~repro.service.server.MapServer`, but behind it sits a
shard set: each typed request is clipped to the shards whose Hilbert
regions it touches, fanned out concurrently, and the replies merged --

* **point / window** go to intersecting shards only and the id lists are
  set-unioned: a boundary segment indexed by both neighbours (the R+ and
  PMR duplication story, now *across* processes) appears exactly once.
* **nearest** goes to every shard with the same ``k``; pairs are merged
  keeping the minimum distance per seg_id, sorted by ``(d2, seg_id)``
  and cut to ``k`` -- the union of local top-k contains the global
  top-k, because each global winner is locally indexed somewhere with a
  local rank no worse than its global rank.
* **insert / delete / checkpoint** go to all shards (replicated table:
  every table appends in lockstep, so positional seg_ids agree).
* **batch** is clipped per member when it is read-only: each sub-request
  goes only to the shards its geometry touches (per-shard sub-batches,
  positional merge), so batch page traffic scales down with the clip.
  A batch carrying any mutation broadcasts whole, keeping barrier
  positions identical on every replicated table.
* **stats / metrics / check / health / trace / explain** are merged
  observability: counters are summed (per-shard totals add up to the
  routed totals exactly), Prometheus expositions are relabelled
  ``shard="<id>"`` and concatenated, and EXPLAIN reports keep each
  shard's cost tree under one merged ``observed`` bill.

Failure semantics: an unreachable worker never hangs the client. The
router answers ``{"ok": false, "error": {"code": "shard_unavailable",
"shard": ..., ...}}`` and, when other shards did answer a read, attaches
their merged answer under ``"partial"``. Worker addresses are re-read
from each shard's ``shard.addr`` on every reconnect, so a worker
restarted on a new port heals without touching the router.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ERROR_CODES, ProtocolError, ShardUnavailableError
from repro.geometry import Rect
from repro.metric_names import (
    COUNTER_FIELDS,
    DISK_ACCESSES,
    DISK_READS,
)
from repro.obs import dtrace
from repro.obs.clock import clock_info, now_us, wall_now_us
from repro.obs.explain import merge_explain_reports
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILER, merge_profiles
from repro.obs.prom import merge_prom_texts
from repro.obs.trace import TRACER
from repro.sanitize import make_condition, make_lock
from repro.service.api import (
    BatchRequest,
    Delete,
    Explain,
    Insert,
    NearestQuery,
    PointQuery,
    WindowQuery,
    parse_batch_item,
    parse_request,
)
from repro.service.protocol import Envelope, Protocol
from repro.service.server import (
    _COMPACT,
    DEFAULT_IDLE_TIMEOUT,
    MAX_LINE_BYTES,
    LineServer,
)
from repro.shard.manifest import ShardMap, ShardSpec
from repro.shard.worker import read_addr


class _RelayedError(ProtocolError):
    """A structured error a shard served, re-raised router-side with the
    originating shard attached (``error_envelope`` keeps both)."""

    def __init__(self, shard_id: str, envelope: Dict[str, Any]) -> None:
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
        line = json.dumps(payload, separators=_COMPACT).encode("utf-8") + b"\n"
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
# Merge helpers
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


def _shift_spans(record: Dict[str, Any], offset: float) -> None:
    """Shift a span record and all descendants onto the router timeline.

    Worker span timestamps are relative to the worker root's monotonic
    start; adding the stitcher's offset re-expresses them relative to
    the router root, so one merged tree renders on one time axis.
    """
    record["start_us"] = record.get("start_us", 0) + offset
    for child in record.get("spans", ()):
        _shift_spans(child, offset)


def _merge_same_value(values: List[Any], what: str) -> Any:
    first = values[0]
    for value in values[1:]:
        if value != first:
            raise RuntimeError(
                f"shards disagree on {what}: {sorted(set(map(repr, values)))}; "
                f"the replicated tables have diverged (run shard-rebuild)"
            )
    return first


class RouterCore:
    """The router's logic, transport-free: clients, gate, scatter, merge.

    It is a *target* of the protocol core
    (:mod:`repro.service.protocol`): :class:`ShardRouter` serves it over
    the threaded line transport and
    :class:`repro.aio.router.AsyncShardRouter` over the asyncio server,
    so both fronts decode, route, merge and answer identically -- one
    implementation, two transports. All methods here are thread-safe:
    the drain gate is a condition variable and the scatter pool is
    shared.
    """

    def __init__(self, root: str, timeout: float = 5.0) -> None:
        self.root = os.fspath(root)
        self.timeout = timeout
        self.registry = MetricsRegistry()
        self._gate = make_condition("shard.router.gate")
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
        """
        if raw.get("op") == "reload":
            return self.reload()
        self._enter_gate()
        try:
            return self._dispatch_traced(raw)
        finally:
            self._exit_gate()

    def count_request(self, op: str, ok: bool) -> None:
        self.registry.counter(
            "repro_router_requests_total",
            op=op,
            status="ok" if ok else "error",
        ).inc()

    def _dispatch_traced(self, raw: Dict[str, Any]) -> Any:
        """Dispatch under a router root span when tracing is armed.

        The root consumes the client's ``"tc"`` context the protocol
        core parked (parenting it under the caller), scatter/merge
        phases become child spans, and ``finish_trace`` parks the
        response attachment for the core to collect. With tracing off
        this adds exactly one attribute check on top of :meth:`dispatch`.
        """
        if not TRACER.enabled:
            return self.dispatch(raw)
        root = TRACER.start_trace(str(raw.get("op")))
        error: Optional[str] = None
        try:
            return self.dispatch(raw)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if root is not None:
                TRACER.finish_trace(root, error=error)

    # ------------------------------------------------------------------
    # Scatter and gather
    # ------------------------------------------------------------------
    def _specs(self, shard_ids: Optional[List[str]] = None) -> List[ShardSpec]:
        if shard_ids is None:
            return list(self.shard_map.shards)
        return [self.shard_map.shard(sid) for sid in shard_ids]

    def _scatter(
        self, specs: List[ShardSpec], payload: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, ShardUnavailableError]]:
        """Fan ``payload`` to ``specs`` concurrently.

        Returns ``(responses, failures)``: response envelopes by shard
        id, and the transport-level failures by shard id.
        """
        payload = {k: v for k, v in payload.items() if k not in ("v", "tc")}
        root = TRACER.current_root() if TRACER.enabled else None
        if root is not None and "trace_id" in root:
            return self._traced_scatter(specs, payload, root)

        def call(spec: ShardSpec):
            try:
                return spec.shard_id, self.clients[spec.shard_id].request(payload), None
            except ShardUnavailableError as exc:
                return spec.shard_id, None, exc

        futures = [self._pool.submit(call, spec) for spec in specs]
        responses: Dict[str, Any] = {}
        failures: Dict[str, ShardUnavailableError] = {}
        for future in futures:
            shard_id, response, exc = future.result()
            if exc is not None:
                failures[shard_id] = exc
            else:
                responses[shard_id] = response
        return responses, failures

    def _traced_scatter(
        self,
        specs: List[ShardSpec],
        payload: Dict[str, Any],
        root: Dict[str, Any],
    ) -> Tuple[Dict[str, Any], Dict[str, ShardUnavailableError]]:
        """The scatter fan-out with distributed identity aboard.

        Every shard request carries a fresh child context as the v1
        ``"tc"`` field (the pooled clients speak JSON lines), so each
        worker roots its local trace under this router span -- sampled
        or not, keeping the head decision consistent end to end. When
        the router root *is* sampled, the fan-out sits under a
        ``scatter`` span and each worker's returned subtree is grafted
        back in as a ``shard:<id>`` child with its timestamps shifted
        onto the router's clock via the connect-time skew estimate.
        """
        sampled = bool(root.get("sampled", True))
        # Per-shard (send_us, recv_us, attachment) triples. Pool threads
        # write distinct keys (dict ops are atomic under the GIL); the
        # dispatching thread reads only after their futures resolve.
        timings: Dict[str, Tuple[float, float, Optional[Dict[str, Any]]]] = {}

        def call(spec: ShardSpec):
            sid = spec.shard_id
            child = dtrace.TraceContext(
                root["trace_id"], dtrace.new_span_id(), sampled
            )
            shard_payload = dict(payload)
            shard_payload["tc"] = child.to_wire()
            t0 = now_us()
            try:
                response = self.clients[sid].request(shard_payload)
            except ShardUnavailableError as exc:
                timings[sid] = (t0, now_us(), None)
                return sid, None, exc
            attachment = (
                response.pop("tc", None) if isinstance(response, dict) else None
            )
            timings[sid] = (t0, now_us(), attachment)
            return sid, response, None

        with TRACER.span("scatter", op=payload.get("op"), shards=len(specs)):
            futures = [self._pool.submit(call, spec) for spec in specs]
            responses: Dict[str, Any] = {}
            failures: Dict[str, ShardUnavailableError] = {}
            for future in futures:
                shard_id, response, exc = future.result()
                if exc is not None:
                    failures[shard_id] = exc
                else:
                    responses[shard_id] = response
            if sampled:
                for spec in specs:
                    self._stitch_shard(
                        root, spec.shard_id, timings.get(spec.shard_id)
                    )
        return responses, failures

    def _stitch_shard(
        self,
        root: Dict[str, Any],
        shard_id: str,
        timing: Optional[Tuple[float, float, Optional[Dict[str, Any]]]],
    ) -> None:
        """Graft one shard's round trip (and returned subtree) into the
        active trace as a ``shard:<id>`` wrapper span."""
        if timing is None:
            return
        t0, t1, attachment = timing
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
            if (
                skew is not None
                and "wall_us" in subtree
                and "wall_us" in root
            ):
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
        self,
        specs: List[ShardSpec],
        payload: Dict[str, Any],
        merge,
        partial_merge=None,
    ):
        """Scatter, then merge the successful results -- or raise with
        the failing shard attached and any partial answer aboard."""
        responses, failures = self._scatter(specs, payload)
        oks: Dict[str, Any] = {}
        relayed: Dict[str, Dict[str, Any]] = {}
        for shard_id, response in responses.items():
            if response.get("ok"):
                oks[shard_id] = response.get("result")
            else:
                relayed[shard_id] = response.get("error") or {}
        if failures or relayed:
            if failures:
                shard_id = sorted(failures)[0]
                exc: Exception = failures[shard_id]
            else:
                shard_id = sorted(relayed)[0]
                exc = _RelayedError(shard_id, relayed[shard_id])
            if oks:
                merger = partial_merge if partial_merge is not None else merge
                try:
                    merged = merger(oks)
                except Exception:
                    merged = None
                exc.partial = {
                    "shards": sorted(oks),
                    "result": merged,
                }
            raise exc
        with TRACER.span("merge", shards=len(oks)):
            return merge(oks)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, raw: Dict[str, Any]) -> Any:
        op = raw.get("op")
        if op == "ping":
            return "pong"
        if op == "clock":
            return clock_info()
        if op == "profile":
            return self._merge_profile(raw)
        if op == "trace" and raw.get("trace_id") is not None:
            return self._find_trace(raw)
        request = parse_request(raw)
        smap = self.shard_map
        if isinstance(request, PointQuery):
            specs = smap.route_point(request.x, request.y)
            return self._gather(
                specs, raw, lambda oks: merge_id_lists(list(oks.values()))
            )
        if isinstance(request, WindowQuery):
            rect = Rect(request.x1, request.y1, request.x2, request.y2)
            return self._gather(
                smap.route_rect(rect),
                raw,
                lambda oks: merge_id_lists(list(oks.values())),
            )
        if isinstance(request, NearestQuery):
            k = request.k
            return self._gather(
                self._specs(),
                raw,
                lambda oks: merge_nearest(list(oks.values()), k),
            )
        if isinstance(request, Insert):
            return self._gather(
                self._specs(),
                raw,
                lambda oks: _merge_same_value(list(oks.values()), "seg_id"),
                partial_merge=lambda oks: {"applied": sorted(oks)},
            )
        if isinstance(request, Delete):
            return self._gather(
                self._specs(),
                raw,
                lambda oks: self._merge_delete(request.seg_id, oks),
                partial_merge=lambda oks: {"applied": sorted(oks)},
            )
        if isinstance(request, BatchRequest):
            with TRACER.span("clip", members=len(request.requests)):
                assignment = self._batch_assignment(request)
            if assignment is None:
                # Mutations must reach every replicated table: the whole
                # batch broadcasts so barrier positions agree shard-wide.
                return self._gather(
                    self._specs(),
                    raw,
                    lambda oks: self._merge_batch(request, oks),
                    partial_merge=lambda oks: {"applied": sorted(oks)},
                )
            return self._clipped_batch(request, assignment)
        if isinstance(request, Explain):
            return self._routed_explain(request, raw)
        if op == "checkpoint":
            return self._gather(
                self._specs(), raw, lambda oks: dict(sorted(oks.items()))
            )
        if op == "stats":
            return self._merge_stats()
        if op == "check":
            return self._merge_check()
        if op == "metrics":
            return self._merge_metrics(raw.get("format", "json"))
        if op in ("health", "trace"):
            responses, failures = self._scatter(self._specs(), raw)
            out = {
                sid: resp.get("result")
                for sid, resp in responses.items()
                if resp.get("ok")
            }
            merged: Dict[str, Any] = {
                "shards": dict(sorted(out.items())),
                "unavailable": sorted(failures),
            }
            if op == "trace" and TRACER.enabled:
                # Stitched cross-process trees live in the router's own
                # ring; surface them next to the workers' local traces.
                try:
                    n = int(raw.get("n", 5))
                except (TypeError, ValueError):
                    n = 5
                merged["tracing"] = TRACER.stats()
                merged["traces"] = TRACER.recent(n)
            return merged
        raise ProtocolError(
            f"op {op!r} is not routable through the shard router",
            code="unknown_op",
        )

    # ------------------------------------------------------------------
    # Per-op merges
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_delete(seg_id: int, oks: Dict[str, Any]) -> bool:
        if any(oks.values()):
            return True
        # Every shard logged the delete but none had it indexed: the
        # segment was already gone everywhere. Single-node parity says
        # a double delete is unknown_seg.
        raise KeyError(f"unknown segment id {seg_id}: not indexed on any shard")

    def _merge_batch(
        self, request: BatchRequest, oks: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Member-wise merge of per-shard batch results.

        The whole batch goes to every shard (mutations must reach all
        tables; reads outside a shard's region just come back empty), so
        each shard returns a full result list in arrival order and the
        merge is positional.
        """
        shard_ids = sorted(oks)
        member_lists = [oks[sid]["results"] for sid in shard_ids]
        merged: List[Any] = []
        for idx, member in enumerate(request.requests):
            per_shard = [members[idx] for members in member_lists]
            member_op = member.get("op")
            if member_op in ("point", "window"):
                merged.append(merge_id_lists(per_shard))
            elif member_op == "nearest":
                merged.append(merge_nearest(per_shard, int(member.get("k", 1))))
            elif member_op == "insert":
                merged.append(_merge_same_value(per_shard, "seg_id"))
            else:  # delete
                merged.append(bool(any(per_shard)))
        return {
            "results": merged,
            "order": oks[shard_ids[0]]["order"],
            DISK_ACCESSES: sum(oks[sid][DISK_ACCESSES] for sid in shard_ids),
        }

    def _batch_assignment(
        self, request: BatchRequest
    ) -> Optional[Dict[str, List[int]]]:
        """Shard id -> member indices for a read-only batch.

        Each member is clipped to the shards its geometry touches (the
        same routing the standalone ops get): points and windows go to
        intersecting regions only, nearest to every shard. Returns
        ``None`` when the batch carries a mutation -- those broadcast
        whole, so barrier positions agree on every replicated table.
        Member indices stay in arrival order inside each sub-batch, so a
        shard's Morton scheduling sees the same read-run structure the
        single-node executor would.
        """
        smap = self.shard_map
        assignment: Dict[str, List[int]] = {}
        for idx, member in enumerate(request.requests):
            typed = parse_batch_item(member)
            if isinstance(typed, (Insert, Delete)):
                return None
            if isinstance(typed, PointQuery):
                specs = smap.route_point(typed.x, typed.y)
            elif isinstance(typed, WindowQuery):
                specs = smap.route_rect(
                    Rect(typed.x1, typed.y1, typed.x2, typed.y2)
                )
            else:  # NearestQuery: any shard may hold a global winner
                specs = list(smap.shards)
            for spec in specs:
                assignment.setdefault(spec.shard_id, []).append(idx)
        return assignment

    def _clipped_batch(
        self, request: BatchRequest, assignment: Dict[str, List[int]]
    ) -> Dict[str, Any]:
        """Scatter per-shard sub-batches and merge positionally.

        Unlike the broadcast path, each shard executes only the members
        its region can answer, so batch page traffic scales down with
        the clip exactly like standalone reads do.
        """
        payloads = {
            sid: {
                "op": "batch",
                "requests": [request.requests[i] for i in ixs],
                "order": request.order,
                "use_cache": request.use_cache,
            }
            for sid, ixs in assignment.items()
        }
        if not payloads:  # every member clipped to nothing (or empty batch)
            return self._merge_clipped(request, assignment, {})
        root = TRACER.current_root() if TRACER.enabled else None
        traced = root is not None and "trace_id" in root
        sampled = traced and bool(root.get("sampled", True))
        timings: Dict[str, Tuple[float, float, Optional[Dict[str, Any]]]] = {}

        def call(sid: str):
            shard_payload = payloads[sid]
            if traced:
                child = dtrace.TraceContext(
                    root["trace_id"], dtrace.new_span_id(), sampled
                )
                shard_payload = dict(shard_payload)
                shard_payload["tc"] = child.to_wire()
            t0 = now_us()
            try:
                response = self.clients[sid].request(shard_payload)
            except ShardUnavailableError as exc:
                if traced:
                    timings[sid] = (t0, now_us(), None)
                return sid, None, exc
            attachment = (
                response.pop("tc", None) if isinstance(response, dict) else None
            )
            if traced:
                timings[sid] = (t0, now_us(), attachment)
            return sid, response, None

        responses: Dict[str, Any] = {}
        failures: Dict[str, ShardUnavailableError] = {}
        with TRACER.span("scatter", op="batch", shards=len(payloads)):
            futures = [self._pool.submit(call, sid) for sid in payloads]
            for future in futures:
                sid, response, exc = future.result()
                if exc is not None:
                    failures[sid] = exc
                else:
                    responses[sid] = response
            if sampled:
                for sid in payloads:
                    self._stitch_shard(root, sid, timings.get(sid))
        oks: Dict[str, Any] = {}
        relayed: Dict[str, Dict[str, Any]] = {}
        for sid, response in responses.items():
            if response.get("ok"):
                oks[sid] = response.get("result")
            else:
                relayed[sid] = response.get("error") or {}
        if failures or relayed:
            if failures:
                sid = sorted(failures)[0]
                exc_out: Exception = failures[sid]
            else:
                sid = sorted(relayed)[0]
                exc_out = _RelayedError(sid, relayed[sid])
            if oks:
                try:
                    merged = self._merge_clipped(request, assignment, oks)
                except Exception:
                    merged = None
                exc_out.partial = {"shards": sorted(oks), "result": merged}
            raise exc_out
        with TRACER.span("merge", shards=len(oks)):
            return self._merge_clipped(request, assignment, oks)

    def _merge_clipped(
        self,
        request: BatchRequest,
        assignment: Dict[str, List[int]],
        oks: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Member-wise merge of clipped sub-batch results.

        A member that routed to no shard merges over zero answers: an
        empty id list, which is correct -- no shard's region touches it,
        so no shard indexes a qualifying segment.
        """
        per_member: List[List[Any]] = [[] for _ in request.requests]
        for sid, ixs in assignment.items():
            if sid not in oks:
                continue
            shard_results = oks[sid]["results"]
            for j, idx in enumerate(ixs):
                per_member[idx].append(shard_results[j])
        merged: List[Any] = []
        for idx, member in enumerate(request.requests):
            if member.get("op") == "nearest":
                merged.append(
                    merge_nearest(per_member[idx], int(member.get("k", 1)))
                )
            else:  # point / window
                merged.append(merge_id_lists(per_member[idx]))
        return {
            "results": merged,
            "order": request.order,
            DISK_ACCESSES: sum(oks[sid][DISK_ACCESSES] for sid in oks),
        }

    def _routed_explain(
        self, request: Explain, raw: Dict[str, Any]
    ) -> Dict[str, Any]:
        inner = request.query
        if isinstance(inner, PointQuery):
            specs = self.shard_map.route_point(inner.x, inner.y)
        elif isinstance(inner, WindowQuery):
            specs = self.shard_map.route_rect(
                Rect(inner.x1, inner.y1, inner.x2, inner.y2)
            )
        else:
            specs = self._specs()
        return self._gather(
            specs, raw, lambda oks: merge_explain_reports(dict(oks))
        )

    def _merge_stats(self) -> Dict[str, Any]:
        responses, failures = self._scatter(self._specs(), {"op": "stats"})
        shards: Dict[str, Any] = {}
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        consistent = True
        for shard_id, response in sorted(responses.items()):
            if not response.get("ok"):
                failures[shard_id] = self.clients[shard_id]._unavailable(
                    "stats op failed"
                )
                continue
            stats = response["result"]
            shards[shard_id] = stats
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
            "shards": shards,
            "totals": totals,
            "counters_consistent": consistent,
            "unavailable": sorted(failures),
        }

    def _merge_check(self) -> Dict[str, Any]:
        responses, failures = self._scatter(self._specs(), {"op": "check"})
        shards: Dict[str, Any] = {}
        clean = not failures
        for shard_id, response in sorted(responses.items()):
            if response.get("ok"):
                shards[shard_id] = response["result"]
                clean = clean and response["result"].get("clean", False)
            else:
                clean = False
                shards[shard_id] = {
                    "clean": False,
                    "error": response.get("error"),
                }
        return {
            "clean": clean,
            "shards": shards,
            "unavailable": sorted(failures),
        }

    def _merge_metrics(self, fmt: str) -> Any:
        payload = {"op": "metrics", "format": fmt}
        if fmt == "prom":
            responses, failures = self._scatter(self._specs(), payload)
            if failures:
                shard_id = sorted(failures)[0]
                raise failures[shard_id]
            texts = {}
            for shard_id, response in responses.items():
                if not response.get("ok"):
                    raise _RelayedError(shard_id, response.get("error") or {})
                texts[shard_id] = response["result"]
            texts["router"] = self.registry.render_prom()
            return merge_prom_texts(texts)
        responses, failures = self._scatter(self._specs(), payload)
        out = {
            sid: resp.get("result")
            for sid, resp in responses.items()
            if resp.get("ok")
        }
        return {
            "shards": dict(sorted(out.items())),
            "router": self.registry.render_json(),
            "unavailable": sorted(failures),
        }

    def _find_trace(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """Serve ``{"op": "trace", "trace_id": ...}``: the stitched tree.

        Stitched cross-process trees live in the *router's* ring (the
        workers hold only their local subtrees, already grafted in), so
        the router answers from its own buffer first and falls back to
        asking the shards -- a trace that was sampled on a worker but
        whose router record was evicted is still reachable.
        """
        trace_id = str(raw["trace_id"])
        local = TRACER.find(trace_id)
        if local is not None:
            return {"trace": local, "source": "router"}
        responses, _failures = self._scatter(self._specs(), raw)
        for shard_id, response in sorted(responses.items()):
            if response.get("ok"):
                found = (response.get("result") or {}).get("trace")
                if found is not None:
                    return {"trace": found, "source": shard_id}
        return {"trace": None, "source": None}

    def _merge_profile(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """Fan the ``profile`` op out; sample the router meanwhile.

        The workers each run their own sampling window concurrently
        while the dispatching thread profiles this process (capturing
        the router's scatter threads at work), then the collapsed stacks
        merge re-rooted under ``router`` / ``shard:<id>`` labels -- one
        flamegraph across the whole shard set.
        """
        seconds = float(raw.get("seconds", 1.0))
        hz = raw.get("hz", 97)
        payload = {"op": "profile", "seconds": seconds, "hz": hz}
        # The shard call legitimately takes the whole sampling window to
        # answer; give it the window plus the usual transport allowance.
        deadline = seconds + max(self.timeout, 5.0)
        futures = {
            spec.shard_id: self._pool.submit(
                self.clients[spec.shard_id].request, payload, deadline
            )
            for spec in self._specs()
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


class ShardRouter(LineServer, RouterCore):
    """Scatter-gather front end over the shard set rooted at ``root``.

    The threaded line transport with a :class:`RouterCore` as its
    protocol target: one handler thread per client connection, same
    idle timeout and line cap as the threaded map server. ``python -m
    repro route --async`` serves the identical core behind the asyncio
    server instead."""

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 5.0,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        max_line_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        RouterCore.__init__(self, root, timeout=timeout)
        LineServer.__init__(
            self,
            self.protocol,
            host,
            port,
            idle_timeout,
            max_line_bytes,
            "shard-router",
        )

    def close(self) -> None:
        """Shut down deterministically: stop serving and join the accept
        thread, then release every client connection and the scatter
        pool. After close() returns no router thread is live and no
        socket is open."""
        self.stop()
        self.close_clients()
