"""Per-query trace spans, captured into a bounded ring buffer.

A *trace* is one span tree for one engine request: a root span named
after the op and child spans for the phases the engine distinguishes
(``traverse``, ``apply``, ``commit``). What the storage and WAL layers
did underneath is not a stream of child records: it is the paper's
counters, whose exact deltas the engine sets as attributes on the span
that was charged them (``counters``, ``latch_wait_us``, ``lsn``,
``fsync``, and ``cache`` on the request's own span). Nothing below the
engine knows the tracer exists.

Design constraints, in priority order:

1. **Disabled tracing must cost (almost) nothing.** Every hook is in the
   service layer and is guarded by ``if TRACER.enabled:`` or answered by
   the shared no-op span handle -- no allocation, no thread-local
   access. ``tests/test_hot_path_budget.py`` pins how many calls into
   ``repro/obs/`` a served read makes with tracing off.
2. **Traces are bounded.** Finished traces land in a ring buffer
   (``capacity`` traces); within a trace, at most :data:`MAX_EVENTS` child
   records are kept and the rest are counted in ``dropped`` -- a batch
   of a million members cannot balloon a trace.
3. **Threads do not interleave.** The active span stack is
   thread-local, so K server threads tracing concurrently each build
   their own tree; only the finished-trace ring is shared (under a
   lock).

The module-level :data:`TRACER` is the process-wide instance the
service layer records into -- the same singleton pattern as the
process-wide :func:`repro.obs.metrics.get_registry`, and consistent
with it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs import dtrace
from repro.obs.clock import now_us, wall_now_us
from repro.sanitize import make_lock

#: Child records one trace keeps; the rest are counted in ``dropped``.
MAX_EVENTS = 512


class _SpanHandle:
    """Context manager for one open span (internal; reuse via Tracer).

    ``recording`` says whether this is a live span (vs the shared no-op
    handle): callers check it to skip building expensive attribute
    values. A plain attribute, so the check is no call.
    """

    __slots__ = ("_tracer", "_record", "recording")

    def __init__(self, tracer: "Tracer", record: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self._record = record
        self.recording = record is not None

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        if self._record is not None:
            self._tracer._close_span(self._record)

    def set_error(self, message: str) -> None:
        """Mark the span failed (no-op on the disabled handle)."""
        if self._record is not None:
            self._record["error"] = message

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute to the span (no-op on the disabled handle)."""
        if self._record is not None:
            self._record.setdefault("attrs", {})[key] = value


#: The shared do-nothing handle served when tracing is off or no trace is
#: active on this thread: entering/exiting it allocates nothing.
_NOOP = _SpanHandle.__new__(_SpanHandle)
_NOOP._tracer = None  # type: ignore[assignment]
_NOOP._record = None
_NOOP.recording = False


class Tracer:
    """Build span trees per thread; keep the last ``capacity`` of them.

    A span record is a plain dict (JSON-ready for the server's
    ``{"op": "trace"}``)::

        {"name": "window", "start_us": 12.3, "dur_us": 840.1,
         "attrs": {...}, "spans": [...], "events": 37, "dropped": 0}

    ``events`` counts every child span *attempted*; ``dropped`` the
    subset discarded once :data:`MAX_EVENTS` was reached.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: Finished traces kept; :meth:`arm` resizes the ring.
        self.capacity = 64
        #: Head-sampling rate: the share of locally rooted requests that
        #: record full detail. Every root gets trace/span ids; an
        #: unsampled one keeps only its skeleton, and
        #: :meth:`finish_trace` applies the tail policy to it.
        self.sample_rate = 0.0
        #: Tail-retention latency threshold (microseconds): a trace at
        #: least this slow is kept even when the head decision said no.
        self.slow_us: Optional[float] = None
        self.started = 0
        self.finished = 0
        #: Roots that finished at or above ``slow_us``, mirrored into the
        #: registry as ``repro_slow_queries_total`` at export time.
        self.slow = 0
        #: Skeletons dropped by the tail policy (fast, ok, unsampled).
        self.tail_discarded = 0
        #: Finished traces pushed out of the ring by newer ones: the
        #: observer's own saturation, mirrored into the registry as
        #: ``repro_trace_dropped_total`` at export time.
        self.evicted = 0
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        self._ring_lock = make_lock("obs.trace.ring")
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def arm(
        self,
        sample_rate: float,
        slow_ms: Optional[float] = None,
        capacity: Optional[int] = None,
    ) -> None:
        """Turn tracing on (``--trace-sample`` and/or ``--slow-ms``).

        Every request then gets the always-on skeleton (root span with
        ids and monotonic timing); full detail is recorded when the head
        decision (``sample_rate``, or the inherited wire flag) says so,
        and retention at completion additionally keeps errored and --
        when ``slow_ms`` is set -- slow skeletons. ``capacity`` resizes
        the ring of retained traces.
        """
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if capacity is not None and capacity != self.capacity:
            if capacity < 1:
                raise ValueError(f"capacity must be >= 1, got {capacity}")
            self.capacity = capacity
            with self._ring_lock:
                self._ring = deque(self._ring, maxlen=capacity)
        self.sample_rate = sample_rate  # repro-lint: disable=CC03 -- benign single-writer config, same contract as `enabled`: set before serving starts; request threads read it lock-free and a stale read only shifts one request's sampling verdict
        self.slow_us = None if slow_ms is None else slow_ms * 1000.0  # repro-lint: disable=CC03 -- benign single-writer config: see sample_rate above
        self.enabled = True  # repro-lint: disable=CC03 -- benign single-writer flag: hooks read it lock-free by design (constraint 1); a stale read means one skipped trace, never corruption

    def disarm(self) -> None:
        """Tracing off, thresholds forgotten: tests and teardown."""
        self.enabled = False  # repro-lint: disable=CC03 -- benign single-writer flag: see arm(); readers tolerate staleness
        self.sample_rate = 0.0  # repro-lint: disable=CC03 -- benign single-writer config: teardown path, see arm()
        self.slow_us = None  # repro-lint: disable=CC03 -- benign single-writer config: teardown path, see arm()

    def clear(self) -> None:
        """Drop every finished trace (the stats counters are kept)."""
        with self._ring_lock:
            self._ring.clear()

    # ------------------------------------------------------------------
    # Trace lifecycle (called by the engine's dispatch point)
    # ------------------------------------------------------------------
    def start_trace(self, op: str, **attrs: Any) -> Optional[Dict[str, Any]]:
        """Open a root span for this thread; returns None when disabled.

        The engine calls this once per request and MUST pair it with
        :meth:`finish_trace` in a finally block.
        """
        if not self.enabled:
            return None
        # Distributed identity: inherit the context the server parked
        # for this thread, else this process is the edge and mints one.
        parent = dtrace.take_incoming()
        if parent is None:
            ctx = dtrace.TraceContext.new_root(self.sample_rate)
        else:
            ctx = parent.child()
        root: Dict[str, Any] = {
            "name": op,
            "start_us": 0.0,
            "dur_us": 0.0,
            "attrs": attrs,
            "spans": [],
            "events": 0,
            "dropped": 0,
            "trace_id": ctx.trace_id,
            "span_id": ctx.span_id,
            "sampled": ctx.sampled,
            "wall_us": wall_now_us(),
            "_t0": now_us(),
        }
        if parent is not None:
            root["parent_id"] = parent.span_id
        self._local.stack = [root]
        with self._ring_lock:  # exact under concurrency, like finished/evicted
            self.started += 1
        return root

    def active(self) -> bool:
        """Is a trace open on the calling thread?

        The engine uses this to nest: an op executed *inside* another
        traced op (a batch's sub-requests) becomes a child span of the
        enclosing trace instead of clobbering it.
        """
        return bool(getattr(self._local, "stack", None))

    def current_root(self) -> Optional[Dict[str, Any]]:
        """The root record of the trace open on this thread, or None.

        The router reads the root's distributed identity off this to
        mint child contexts for its fan-out without threading the record
        through every call signature.
        """
        stack = getattr(self._local, "stack", None)
        return stack[0] if stack else None

    def finish_trace(
        self, root: Dict[str, Any], error: Optional[str] = None
    ) -> Dict[str, Any]:
        """Close the root span and apply the tail-retention policy.

        A root is kept in the ring when head-sampled, errored, or --
        with a ``slow_us`` threshold armed -- slow; fast clean unsampled
        skeletons are counted in ``tail_discarded`` and dropped. Either
        way the response attachment (ids, plus the local span subtree
        for sampled remote requests) is parked for the server layer.
        """
        root["dur_us"] = now_us() - root.pop("_t0")
        if error is not None:
            root["error"] = error
        self._local.stack = None
        sampled = root["sampled"]
        slow = self.slow_us is not None and root["dur_us"] >= self.slow_us
        keep = sampled or error is not None
        if slow and not keep:
            keep = True
            root["retained"] = "slow"
        with self._ring_lock:
            self.finished += 1
            if slow:
                self.slow += 1
            if not keep:
                self.tail_discarded += 1
            else:
                if len(self._ring) == self.capacity:
                    self.evicted += 1  # the append below displaces the oldest
                self._ring.append(root)
        attachment: Dict[str, Any] = {
            "t": root["trace_id"],
            "s": root["span_id"],
            "f": dtrace.FLAG_SAMPLED if sampled else 0,
        }
        if sampled and "parent_id" in root:  # a caller to graft it under
            attachment["span"] = root
        dtrace.set_outbound(attachment)
        return root

    # ------------------------------------------------------------------
    # Spans (called from the service layer, any thread)
    # ------------------------------------------------------------------
    def _admit(self, detail: bool = True) -> Optional[List[Dict[str, Any]]]:
        """This thread's span stack, if the trace open on it takes one
        more child record; None on a thread with no active trace, for
        ``detail`` on an unsampled skeleton, and past :data:`MAX_EVENTS`
        (counted in ``dropped``)."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        root = stack[0]
        if detail and not root["sampled"]:
            return None
        root["events"] += 1
        if root["events"] > MAX_EVENTS:
            root["dropped"] += 1
            return None
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """A child span of whatever is open on this thread.

        With tracing disabled -- or on a thread with no active trace --
        this returns a shared no-op handle: nothing is allocated.
        """
        if not self.enabled:
            return _NOOP
        stack = self._admit()
        if stack is None:
            return _NOOP
        t0 = now_us()
        record: Dict[str, Any] = {
            "name": name,
            "start_us": t0 - stack[0]["_t0"],
            "dur_us": 0,
            "spans": [],
            "_t0": t0,
        }
        if attrs:
            record["attrs"] = attrs
        stack[-1]["spans"].append(record)
        stack.append(record)
        return _SpanHandle(self, record)

    def _close_span(self, record: Dict[str, Any]) -> None:
        record["dur_us"] = now_us() - record.pop("_t0")
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is record:
            stack.pop()

    def annotate(self, **attrs: Any) -> None:
        """Set attributes on the innermost span open on this thread (a
        sampled trace's only: a skeleton keeps the request's own)."""
        stack = getattr(self._local, "stack", None)
        if stack and stack[0]["sampled"]:
            stack[-1].setdefault("attrs", {}).update(attrs)

    def attach_subtree(self, record: Dict[str, Any]) -> None:
        """Graft an already-built span record under the open span.

        The router uses this to stitch each leg of a fan-out (a
        ``shard:<id>`` wrapper around the worker's returned subtree, if
        any) into the active trace. A leg is part of the router's
        skeleton: it is kept on an unsampled root too, so a tail-retained
        slow request still says which process took the time. Counts
        against :data:`MAX_EVENTS` like any other child.
        """
        stack = self._admit(detail=False)
        if stack is not None:
            stack[-1]["spans"].append(record)

    # ------------------------------------------------------------------
    # Reading traces back
    # ------------------------------------------------------------------
    def recent(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The last ``n`` finished traces, oldest first (all by default)."""
        with self._ring_lock:
            traces = list(self._ring)
        if n is not None:
            traces = traces[-n:]
        return traces

    def find(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The buffered trace with this id, newest first.

        When a process holds several records under one id (the in-process
        shard harness shares this tracer between router and workers), the
        parentless root -- the stitched tree -- wins.
        """
        with self._ring_lock:
            candidates = [rec for rec in self._ring if rec["trace_id"] == trace_id]
        for rec in reversed(candidates):
            if "parent_id" not in rec:
                return rec
        return candidates[-1] if candidates else None

    def slow_queries(self) -> Dict[str, Any]:
        """The slow-query log: the retained roots at or above ``slow_us``.

        A view over the ring, not a store of its own -- each entry names
        the ``trace_id`` under which :meth:`find` returns the span tree
        that says *why* it was slow. ``unix_time`` is when the request
        started, on the anchored wall clock.
        """
        threshold = self.slow_us
        entries = [
            {
                "op": rec["name"],
                "ms": round(rec["dur_us"] / 1e3, 3),
                "attrs": rec["attrs"],
                "unix_time": rec["wall_us"] / 1e6,
                "trace_id": rec["trace_id"],
            }
            for rec in self.recent()
            if threshold is not None and rec["dur_us"] >= threshold
        ]
        return {
            "threshold_ms": None if threshold is None else threshold / 1e3,
            "capacity": self.capacity,
            "recorded": self.slow,
            "buffered": len(entries),
            # The shard router annotates each with its originating shard.
            "entries": entries,
        }

    def stats(self) -> Dict[str, Any]:
        with self._ring_lock:
            buffered = len(self._ring)
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "max_events": MAX_EVENTS,
            "buffered": buffered,
            "started": self.started,
            "finished": self.finished,
            "evicted": self.evicted,
            "sample_rate": self.sample_rate,
            "tail_discarded": self.tail_discarded,
        }


#: The process-wide tracer every instrumented layer emits into.
TRACER = Tracer()


def format_trace_tree(record: Dict[str, Any]) -> str:
    """Render one span tree as indented text, one line per span.

    Used by ``stats --format traces``: offsets and durations are the
    tracer's microseconds, so a stitched cross-process tree reads on one
    time axis.
    """
    import json

    lines: List[str] = []

    def walk(rec: Dict[str, Any], depth: int) -> None:
        head = "  " * depth + str(rec.get("name", "?"))
        head += f"  +{rec.get('start_us', 0):.0f}us"
        if "dur_us" in rec:
            head += f" ({rec['dur_us']:.0f}us)"
        attrs = rec.get("attrs")
        if attrs:
            rendered = " ".join(
                f"{key}={json.dumps(value, sort_keys=True, separators=(',', ':'))}"
                if isinstance(value, (dict, list))
                else f"{key}={value}"
                for key, value in sorted(attrs.items())
            )
            head += "  " + rendered
        if rec.get("error"):
            head += f"  ERROR: {rec['error']}"
        lines.append(head)
        for child in rec.get("spans", ()):
            walk(child, depth + 1)

    walk(record, 0)
    return "\n".join(lines)
