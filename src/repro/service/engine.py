"""A thread-safe, metered, *observable* read path over one spatial index.

The storage substrate is single-threaded by design (the paper measures a
solitary structure); a server is not. The :class:`QueryEngine` makes the
shared stack safe and attributable:

* **One dispatch point** -- :meth:`QueryEngine.execute` runs a read as
  the :class:`~repro.core.queries.spec.QuerySpec` it is (the wire's
  three, and the paper's queries 2 and 4, which have no wire op) and any
  other op as the :class:`~repro.service.api.Command` its row of
  :data:`repro.service.api.OPS` describes, so instrumentation attaches
  in exactly one place. ``insert_segment`` / ``delete`` / ``checkpoint``
  are the Python spellings of those three requests.
* **Observability** -- ``execute`` opens a trace span per request
  (:data:`repro.obs.trace.TRACER`; nested requests, e.g. a batch's
  members, become child spans), observes a per-op latency histogram and
  request counter in the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry`. A sampled span's cost is
  the paper's counters: ``traverse`` and ``apply`` carry the exact deltas
  they were charged, and nothing below the engine records into the
  tracer. With tracing disabled the per-request cost is a couple of
  attribute checks -- no allocation. The slow-query log in ``stats`` is
  the tracer's view of its retained roots.
* **Latching** -- every traversal (and every counter swap) runs under one
  :class:`~repro.storage.latch.Latch` guarding the shared buffer pool, so
  N worker threads can issue queries concurrently without corrupting
  frames, the replacement policy, or the counters. The latch counts
  contended acquisitions for the server's stats endpoint.
* **Per-session attribution** -- each session owns a
  :class:`~repro.storage.counters.MetricsCounters`. A query runs against
  a scratch counter set that is merged into both the session's counters
  and the engine totals, so at any instant the session counters sum
  exactly to the shared pool's totals (the ``counters_consistent`` check;
  the bench harness asserts it after every run).
* **Result caching** -- queries are memoized in an LRU
  (:class:`~repro.service.cache.ResultCache`) keyed on the canonicalized
  query; any ``insert``/``delete`` invalidates the whole cache. A miss is
  stored, and a mutation invalidates, before the latch that covered the
  traversal or the apply is released, so no answer computed from the
  pre-mutation index can enter the cache after the invalidation.
* **Durability (optional)** -- constructed with a
  :class:`~repro.wal.store.DurableStore`, every mutation is logged to
  the write-ahead log *then* applied, both under the latch so LSN order
  matches apply order; the fsync (shared by concurrent commits) happens after
  the latch is released, and only then is the caller acked. A crash at
  any point replays the logged suffix on recovery
  (:func:`repro.wal.open_durable`).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from repro.core.interface import WORLD_DEPTH
from repro.core.queries.spec import QuerySpec, execute_spec
from repro.errors import NotDurableError, ProtocolError
from repro.geometry import Segment
from repro.obs.buildinfo import publish_build_info
from repro.obs.explain import ExplainProfile
from repro.obs.health import publish_health
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profile import PROFILER
from repro.obs.trace import TRACER
from repro.service.api import OPS, Command
from repro.metric_names import COUNTER_FIELDS
from repro.sanitize import SANITIZER, make_lock
from repro.storage.codec import stored_segment
from repro.storage.counters import MetricsCounters
from repro.storage.latch import Latch


#: What a read that opts out of the result cache gets from the lookup.
_UNCACHED = (False, None)


class QuerySession:
    """One client's view of the service: counters and query tally."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters = MetricsCounters()
        self.queries = 0
        self.cache_hits = 0

    def stats(self) -> dict:
        out = {
            "name": self.name,
            "queries": self.queries,
            "cache_hits": self.cache_hits,
        }
        out.update(self.counters.as_dict())
        return out


class QueryEngine:
    """Concurrent typed-request service over one built index."""

    def __init__(
        self,
        index,
        cache_capacity: int = 256,
        store=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        from repro.service.cache import ResultCache  # avoid import cycle

        if store is not None and store.index is not index:
            raise ValueError(
                "durable engine must serve the store's own index: the WAL "
                "records mutations of exactly that table and structure"
            )
        self.index = index
        self.ctx = index.ctx
        self.store = store
        self.latch = Latch("buffer-pool")
        self.cache = ResultCache(cache_capacity)
        self.totals = MetricsCounters()
        self.registry = registry if registry is not None else get_registry()
        self._sessions: Dict[str, QuerySession] = {}
        # What the sessions of ended connections were charged, as one row.
        self._closed: Optional[QuerySession] = None
        self._sessions_lock = make_lock("service.engine.sessions")
        self._deferred = threading.local()
        self._anon = itertools.count(1)
        self._batch = None
        # Per-op metric handles, resolved once so the hot path is a single
        # dict lookup (the registry itself get-or-creates lazily).
        self._op_metrics: Dict[str, Tuple[Any, Any]] = {}
        self._op_error_counters: Dict[str, Any] = {}
        self._trace_counter = self.registry.counter("repro_traces_total")
        publish_build_info(
            self.registry, page_size=self.ctx.page_size, grid_bits=WORLD_DEPTH
        )
        # Seed the structural-health gauges from the opening state; later
        # refreshes happen on checkpoint, the health op, and prom export.
        self.refresh_health()

    @property
    def durable(self) -> bool:
        return self.store is not None

    @property
    def batch(self):
        """The engine's batch executor (lazy: batch imports this module)."""
        if self._batch is None:
            from repro.service.batch import BatchExecutor

            self._batch = BatchExecutor(self)
        return self._batch

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, name: Optional[str] = None) -> QuerySession:
        """Create or fetch the session named ``name`` (fresh name if None)."""
        with self._sessions_lock:
            if name is None:
                name = f"session-{next(self._anon)}"
            session = self._sessions.get(name)
            if session is None:
                session = self._sessions[name] = QuerySession(name)
            return session

    def retire(
        self, session: QuerySession, into: Optional[QuerySession] = None
    ) -> None:
        """Fold ``session`` into ``into``: by default the ``closed`` row
        of ended connections, or the session a batch ran privately for.

        Under the latch, where :meth:`_attributed` merges, so no charge
        is lost between the fold and the swap; a request of that
        session still running (the async server's executor outlives
        the socket) then charges ``into`` directly, and
        :meth:`counters_consistent` stays exact.
        """
        with self.latch:
            with self._sessions_lock:
                if self._sessions.get(session.name) is not session:
                    return
                del self._sessions[session.name]
                if into is None:
                    if self._closed is None:
                        self._closed = QuerySession("closed")
                    into = self._closed
                into.counters.merge(session.counters)
                into.queries += session.queries
                into.cache_hits += session.cache_hits
                session.counters = into.counters

    def sessions(self) -> List[QuerySession]:
        """Live connections, named Python sessions and, once a
        connection has ended, the one ``closed`` row."""
        with self._sessions_lock:
            live = list(self._sessions.values())
            return live if self._closed is None else live + [self._closed]

    def counters_consistent(self) -> bool:
        """Do the per-session counters sum to the shared totals?"""
        total = MetricsCounters()
        for session in self.sessions():
            total.merge(session.counters)
        return total == self.totals

    # ------------------------------------------------------------------
    # The single dispatch point
    # ------------------------------------------------------------------
    def execute(self, request, session: Optional[QuerySession] = None):
        """Run a :class:`QuerySpec` or a :class:`~repro.service.api.Command`.

        This is where *all* instrumentation attaches: one latency
        histogram observation and one request counter per call (by op
        and status) and one trace (or, nested inside an active trace --
        e.g. a batch member -- one child span). Every op goes through
        here, so every op is measured identically.
        """
        try:
            op = request.op
        except AttributeError:
            raise ProtocolError(
                f"not a typed request: {type(request).__name__}; build a "
                f"QuerySpec, or a repro.service.api.Command (parse_request "
                f"makes either from a wire dict)"
            ) from None
        root = span = None
        if TRACER.enabled:
            if TRACER.active():
                span = TRACER.span(op, **request.describe())
                span.__enter__()
            else:
                root = TRACER.start_trace(op, **request.describe())
        if PROFILER.enabled:
            # The profiler seam: tag this thread with the running op so
            # stack samples split by request kind. One attribute load
            # when idle -- same budget discipline as TRACER.enabled.
            PROFILER.set_op(op)
        error: Optional[str] = None
        start = time.perf_counter()
        try:
            return self._dispatch(request, session)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if PROFILER.enabled:
                PROFILER.clear_op()
            elapsed = time.perf_counter() - start
            pair = self._op_metrics.get(op)
            if pair is None:
                pair = self._metric_pair(op)
            if error is None:
                # One critical section covers histogram + ok counter.
                pair[0].observe_and_count(elapsed, pair[1])
            else:
                pair[0].observe(elapsed)
                self._count_error(op)
            if root is not None:
                TRACER.finish_trace(root, error=error)
                self._trace_counter.inc()
            elif span is not None:
                if error is not None:
                    span.set_error(error)
                span.__exit__(None, None, None)

    # ------------------------------------------------------------------
    # Commit barrier (group commit across connections)
    # ------------------------------------------------------------------
    def _commit_barrier(self) -> None:
        """Make the just-logged mutation durable -- or defer that duty.

        The ordinary path fsyncs inline (``store.commit()``; concurrent
        callers share an fsync), so a mutation is durable before
        ``execute`` returns.
        Inside :meth:`execute_deferred` the barrier instead records the
        mutation's LSN and returns immediately: the caller (the async
        server's cross-connection group committer) owns durability and
        must not ack the client until an fsync covers that LSN.
        """
        if self.store is None:
            return
        local = self._deferred
        if getattr(local, "active", False):
            local.lsn = self.store.last_lsn
            return
        with TRACER.span("commit") as span:
            span.set_attr("fsync", self.store.commit())

    def execute_deferred(
        self, request, session: Optional[QuerySession] = None
    ) -> Tuple[Any, Optional[int]]:
        """Run ``request`` with the inline commit barrier suppressed.

        Returns ``(result, lsn)``. ``lsn`` is the highest LSN the request
        logged, or ``None`` when nothing needs an fsync (reads, errors,
        non-durable engines). Commit-before-ack is the caller's contract:
        it must await an fsync covering ``lsn`` before acknowledging.

        The deferral flag is thread-local, so a request executing on one
        executor thread never suppresses another thread's inline commit.
        """
        local = self._deferred
        local.active = True
        local.lsn = None
        try:
            result = self.execute(request, session=session)
        finally:
            lsn = getattr(local, "lsn", None)
            local.active = False
            local.lsn = None
        return result, lsn

    def _metric_pair(self, op: str) -> Tuple[Any, Any]:
        """Resolve (latency histogram, ok counter) for ``op``, once."""
        return self._op_metrics.setdefault(
            op,
            (
                self.registry.histogram("repro_op_latency_seconds", op=op),
                self.registry.counter("repro_queries_total", op=op, status="ok"),
            ),
        )

    def _count_error(self, op: str) -> None:
        counter = self._op_error_counters.get(op)
        if counter is None:
            counter = self._op_error_counters.setdefault(
                op,
                self.registry.counter(
                    "repro_queries_total", op=op, status="error"
                ),
            )
        counter.inc()

    def _cache_lookup(self, spec: QuerySpec, session: QuerySession) -> Tuple[bool, Any]:
        """``(hit, value)`` from the result cache for one read, tallied on
        the session and set on the request's span as ``cache``; a spec
        that opts out of the cache is a miss that consulted nothing.

        The cache keeps its own hit/miss tally under the lock it takes
        anyway; the registry mirrors are synced at export.
        """
        if not spec.use_cache:
            return _UNCACHED
        found = self.cache.lookup(spec.cache_key())
        if found[0]:
            session.cache_hits += 1
        if TRACER.enabled:
            TRACER.annotate(cache="hit" if found[0] else "miss")
        return found

    def _traverse(
        self,
        session: QuerySession,
        spec: QuerySpec,
        cache: bool = False,
        profile: Optional[ExplainProfile] = None,
    ) -> Tuple[Any, MetricsCounters]:
        """Every read traversal: span, latch, attribution -- in one place.

        The plain read and EXPLAIN both come through here, so each
        executes exactly the traversal the other would. Returns the
        value and the scratch counters the traversal was charged (see
        :meth:`_attributed`).

        ``cache`` stores the answer while the latch is still held (when
        the spec allows it): a mutation invalidates under the same latch
        (:meth:`_mutate`), so an answer read off the pre-mutation index
        is either cached before the invalidation or not at all.
        """
        with TRACER.span("traverse") as span:
            with self._attributed(session, span, profile) as scratch:
                value = execute_spec(self.index, spec)
                if cache and spec.use_cache:
                    self.cache.store(spec.cache_key(), value)
        return value, scratch

    def _dispatch(self, request, session: Optional[QuerySession]):
        if isinstance(request, QuerySpec):
            return self._run(request, session)
        return OPS[request.op].run(self, session, **request.args)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    @contextmanager
    def _attributed(self, session: QuerySession, span=None, profile=None):
        """Run index work under the pool latch, charging ``session``.

        The shared context's counters are swapped for a scratch set for
        the duration, and its EXPLAIN ``profile`` for ``profile``; then
        both are restored and the scratch deltas are merged into the
        session counters and the engine totals. The swap is safe because
        it happens under the same latch that serializes all pool traffic.

        Yields the scratch set: EXPLAIN reads the per-call deltas off it
        after the block exits (the merge leaves the scratch intact), so
        its "observed" figures are exactly what this query was charged --
        no second query, no race with concurrent sessions. A recording
        ``span`` gets the same deltas as ``counters`` -- what the
        router's stitched tree compares against engine counters -- and,
        when this acquisition had to wait for another holder,
        ``latch_wait_us``.
        """
        with self.latch:
            ctx, pool = self.ctx, self.ctx.pool
            scratch = MetricsCounters()
            saved = ctx.counters, pool.counters, ctx.profile
            ctx.counters = pool.counters = scratch
            ctx.profile = profile
            try:
                yield scratch
            finally:
                ctx.counters, pool.counters, ctx.profile = saved
                session.counters.merge(scratch)
                self.totals.merge(scratch)
                if span is not None and span.recording:
                    span.set_attr("counters", scratch.as_dict())
                    if self.latch.holder_wait:
                        span.set_attr(
                            "latch_wait_us", round(self.latch.holder_wait * 1e6, 1)
                        )

    def _run(self, spec: QuerySpec, session: Optional[QuerySession]):
        if session is None:
            session = self.session("default")
        session.queries += 1
        hit, value = self._cache_lookup(spec, session)
        if hit:
            return value
        value, _ = self._traverse(session, spec, cache=True)
        return value

    # ------------------------------------------------------------------
    # EXPLAIN and structural health
    # ------------------------------------------------------------------
    def _explain(self, spec: QuerySpec, session: Optional[QuerySession]):
        """Run a read query with per-level attribution attached.

        The query executes through the *same* :meth:`_traverse`
        the plain dispatch uses, with an :class:`ExplainProfile` set on
        the storage context for its duration; the traversal hooks in the
        index code charge the live counters through the profile's
        windows, so the per-level figures are the real charges, not
        estimates. The cache is bypassed both ways (no lookup, no store) -- EXPLAIN exists to
        observe the traversal, and a cached answer has none.
        """
        if session is None:
            session = self.session("default")
        session.queries += 1
        would_hit = self.cache.peek(spec.cache_key())
        prof = ExplainProfile(spec.op, self.index.name)
        wal_before = self.store.stats() if self.store is not None else None
        start = time.perf_counter()
        value, scratch = self._traverse(session, spec, profile=prof)
        elapsed = time.perf_counter() - start
        observed = scratch.snapshot()
        attributed = prof.attributed()
        observed_dict = observed.as_dict()
        exact = all(
            attributed[name] == observed_dict[name] for name in COUNTER_FIELDS
        )
        report = {
            "op": "explain",
            "args": spec.describe(),
            "plan": prof.to_dict(),
            "observed": observed_dict,
            "exact": exact,
            "result_count": len(value),
            "elapsed_ms": round(elapsed * 1e3, 3),
            "cache": {"would_hit": would_hit, "bypassed": True},
        }
        if not exact:
            report["unattributed"] = {
                name: observed_dict[name] - attributed[name]
                for name in COUNTER_FIELDS
                if observed_dict[name] != attributed[name]
            }
        if wal_before is not None:
            wal_after = self.store.stats()
            report["wal"] = {
                "appends": wal_after["log_appends"] - wal_before["log_appends"],
                "fsyncs": wal_after["fsyncs"] - wal_before["fsyncs"],
            }
        return report

    def refresh_health(self) -> dict:
        """Recompute and publish the structural-health gauges.

        Walks the index via the uncounted ``disk.peek`` bypass under the
        latch, so a refresh moves no session counter, no pool statistic,
        and no paper metric -- only the ``repro_index_*`` gauges.
        """
        with self.latch:
            return publish_health(self.index, self.registry)

    # ------------------------------------------------------------------
    # Mutations (invalidate the cache)
    # ------------------------------------------------------------------
    def insert_segment(
        self, segment: Segment, session: Optional[QuerySession] = None
    ) -> int:
        """Append a segment to the table, index it, invalidate the cache.

        Durable mode logs the record (under the latch, so the LSN order
        is the apply order) and group-commits after the latch drops --
        the mutation is durable before this method returns. A segment
        outside the index's world is refused (``bad_args``) before
        anything is stored, and the table keeps the endpoints rounded to
        float32, as the disk does, so a reopened store answers alike.
        """
        return self.execute(Command("insert", **segment._asdict()), session=session)

    def _mutate(self, session: Optional[QuerySession], apply):
        """The one mutation protocol, whatever is being changed.

        ``apply`` appends/logs/indexes under the latch, so the LSN order
        is the apply order, and the caches forget what they knew before
        the latch drops: no read can traverse the changed index and find
        (or leave behind) state derived from the old one. The commit
        barrier runs after the latch drops.
        """
        if session is None:
            session = self.session("maintenance")
        with TRACER.span("apply") as span:
            with self._attributed(session, span):
                result = apply()
                self.cache.invalidate_all()
                if span.recording and self.store is not None:
                    span.set_attr("lsn", self.store.last_lsn)
        self._commit_barrier()
        return result

    def _owns(self, segment: Segment) -> bool:
        """Is this segment this engine's to index? (All of them, unless
        the engine is one shard of a partitioned index.)"""
        return True

    def _unindex(self, seg_id: int) -> bool:
        """Drop ``seg_id`` from the index; ``KeyError`` if it is not in it."""
        self.index.delete(seg_id)
        return True

    def _apply_insert(
        self, segment: Segment, session: Optional[QuerySession]
    ) -> int:
        extent = self.index.extent()
        if not extent.contains_rect(segment.mbr()):
            raise ProtocolError(f"{segment} lies outside the indexed world {extent}")
        segment = stored_segment(segment)
        owned = self._owns(segment)

        def apply() -> int:
            # The table append and the log record happen whoever owns
            # the segment: positional ids and replay stay in lockstep.
            seg_id = self.ctx.segments.append(segment)
            if self.store is not None:
                self.store.log_insert(seg_id, segment)
            if owned:
                self.index.insert(seg_id)
            return seg_id

        return self._mutate(session, apply)

    def delete(self, seg_id: int, session: Optional[QuerySession] = None) -> None:
        """Unindex a segment, invalidating the cache.

        An id outside the segment table raises ``KeyError`` *before*
        anything is logged; deleting a stored-but-unindexed segment
        (a double delete) logs the record first and then fails the
        apply -- replay treats such a record as the same no-op.
        """
        self.execute(Command("delete", seg_id=int(seg_id)), session=session)

    def _apply_delete(
        self, seg_id: int, session: Optional[QuerySession]
    ) -> bool:
        def apply() -> bool:
            if not 0 <= seg_id < len(self.ctx.segments):
                raise KeyError(
                    f"unknown segment id {seg_id}: the table holds "
                    f"0..{len(self.ctx.segments) - 1}"
                )
            if self.store is not None:
                self.store.log_delete(seg_id)
            return self._unindex(seg_id)

        return self._mutate(session, apply)

    def checkpoint(self, session: Optional[QuerySession] = None, _crash_point=None):
        """Fold the WAL into a fresh snapshot (``{"op": "checkpoint"}``).

        Runs under the latch at a quiescent point, so the snapshot is
        transaction-consistent with the checkpoint LSN; the page writes
        the pool flush performs are attributed to ``session`` (default:
        a dedicated "checkpoint" session), keeping
        :meth:`counters_consistent` exact. Crash-injection runs
        (``_crash_point``) bypass ``execute`` -- they abort mid-protocol
        and must not leave half-open traces behind.
        """
        if _crash_point is not None:
            return self._apply_checkpoint(session, _crash_point)
        return self.execute(Command("checkpoint"), session=session)

    def _apply_checkpoint(
        self, session: Optional[QuerySession], _crash_point
    ):
        if self.store is None:
            raise NotDurableError("engine is not durable: serve with --wal")
        if session is None:
            session = self.session("checkpoint")
        with self._attributed(session):
            result = self.store.checkpoint(_crash_point=_crash_point)
        # The checkpoint just rewrote the snapshot from the live pages;
        # re-derive the structural gauges from the state it captured.
        self.refresh_health()
        return result

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def cold_start(self) -> None:
        """Flush and empty the shared pool (measurement hygiene)."""
        with self.latch:
            self.ctx.pool.clear()

    def check(self) -> dict:
        """Run the static index fsck under the latch (``{"op": "check"}``).

        The walk reads pages via the uncounted ``disk.peek`` bypass, so
        a check never shows up in any session's counters, the engine
        totals, or the pool statistics -- a live server can be fsck'd
        mid-traffic without skewing its measurements.
        """
        from repro.analysis import check_index, has_errors  # avoid import cycle

        with self.latch:
            findings = check_index(self.index)
        return {
            "clean": not has_errors(findings),
            "findings": [f.to_dict() for f in findings],
        }

    def export_metrics(self, format: str):
        """The process-wide registry, as JSON or Prometheus text."""
        self.sync_mirrored_counters()
        if format == "prom":
            # The prom export is the scrape path: serve the gauges
            # freshly recomputed, like every other family.
            self.refresh_health()
            return self.registry.render_prom()
        return self.registry.render_json()

    def sync_mirrored_counters(self) -> None:
        """Copy the tallies kept where they happen into the registry.

        The cache, the tracer, the latch and the WAL each count under a
        lock they already hold, so the request path pays nothing extra;
        exports call this to bring the registry mirrors up to date.
        """
        counter = self.registry.counter
        counter("repro_cache_events_total", outcome="hit").advance_to(self.cache.hits)
        counter("repro_cache_events_total", outcome="miss").advance_to(self.cache.misses)
        tracing = TRACER.stats()
        counter("repro_slow_queries_total").advance_to(TRACER.slow)
        counter("repro_trace_dropped_total").advance_to(tracing["evicted"])
        counter("repro_trace_tail_discarded_total").advance_to(tracing["tail_discarded"])
        self.registry.gauge("repro_trace_buffered").set(tracing["buffered"])
        latch = self.latch
        counter("repro_latch_acquisitions_total").advance_to(latch.acquisitions)
        counter("repro_latch_contended_total").advance_to(latch.contended)
        counter("repro_latch_wait_seconds_total").advance_to(latch.wait_seconds)
        if self.store is not None:
            wal = self.store.stats()
            counter("repro_wal_appends_total").advance_to(wal["log_appends"])
            counter("repro_wal_fsyncs_total").advance_to(wal["fsyncs"])

    def stats(self) -> dict:
        """A full observability snapshot for the server's stats op."""
        self.sync_mirrored_counters()
        with self.latch:
            pool = self.ctx.pool
            disk = self.ctx.disk
            snapshot = {
                "index": {
                    "kind": self.index.name,
                    "segments": len(self.ctx.segments),
                    "entries": self.index.entry_count(),
                    "height": self.index.height(),
                    "pages": self.index.page_count(),
                },
                "totals": self.totals.as_dict(),
                "pool": {
                    "capacity": pool.capacity,
                    "resident": len(pool),
                    "dirty": len(pool.dirty_pages()),
                },
                "disk": {
                    "pages": len(disk),
                    "free_ids": disk.free_page_count,
                    "physical_reads": disk.physical_reads,
                    "physical_writes": disk.physical_writes,
                },
                "latch": self.latch.stats(),
                "cache": self.cache.stats(),
                "sessions": [s.stats() for s in self.sessions()],
                "counters_consistent": self.counters_consistent(),
                "durable": self.store is not None,
                "obs": {
                    "tracing": TRACER.stats(),
                    "slow_queries": TRACER.slow_queries(),
                },
            }
            if SANITIZER.enabled:
                snapshot["sanitizer"] = SANITIZER.report()
            if self.store is not None:
                wal_stats = self.store.stats()
                snapshot["last_lsn"] = wal_stats["last_lsn"]
                snapshot["wal"] = wal_stats
        return snapshot
