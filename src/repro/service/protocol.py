"""The sans-IO protocol core: request bytes in, response envelope out.

Every transport -- the threaded line server, which also fronts every
shard worker, and the asyncio server, which also fronts the shard
router -- hands this module the bytes of one complete request and gets
back the complete response envelope (plus, for a durable mutation whose
commit the transport batches, the LSN its ack must wait for). The
module touches no socket, thread or event loop, so the wire *policy*
exists once:

* a request is one JSON object; a blank line is framing noise and gets
  no reply at all;
* the ``"v"`` pin is checked against the versions the transport speaks
  and echoed on the reply;
* the trace context arrives as the ``"tc"`` field of the request, on
  either wire, and leaves as the ``"tc"`` attachment, collected on the
  thread that ran the request;
* ``ping`` / ``clock`` / ``profile`` are answered here, everything else
  is ``parse_request`` -> ``engine.execute``;
* any exception becomes the structured error object of
  :func:`error_envelope`, with a router's ``partial`` answer attached.

Framing, size caps and their draining, idle timeouts, admission,
scheduling and waiting for the group commit are IO and stay in the
transports; they call :meth:`Protocol.oversized` and
:meth:`Protocol.failed` for the envelopes those decisions need, and
:meth:`Protocol.is_short` to learn which requests can neither block nor
run long (:func:`is_short_read` -- what a transport does with the
answer is its own business).

A *target* is either a :class:`~repro.service.engine.QueryEngine` or a
router: an object with ``route(raw)`` (it forwards the wire dict to its
shards, so it takes the request undigested) and
``count_request(op, ok)``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import FrameTooLargeError, ProtocolError
from repro.metric_names import DISK_ACCESSES
from repro.obs import dtrace
from repro.obs.clock import clock_info
from repro.obs.profile import PROFILER
from repro.obs.trace import TRACER
from repro.service.api import OPS, PROTOCOL_VERSION, parse_request

Envelope = Dict[str, Any]

#: The wire's one JSON encoder, compact and built once: ``json.dumps(x,
#: separators=(",", ":"))`` builds a new ``JSONEncoder`` on every call,
#: and responses carry segment lists, so the default ``", "``/``": "``
#: padding would cost encode time and wire bytes. Its output is
#: ``json.dumps(x, separators=(",", ":"))``'s, byte for byte.
encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: The most result rows a request may be *expected* to return and still
#: count as short. Measured at the paper's scale (50 998 segments, 1 KiB
#: pages, 16-page pool) 256 rows is <= ~4 ms of traversal on R* and PMR:
#: under CPython's 5 ms switch interval, so a worker thread would not
#: have been preempted while computing it either.
#:
#: A window's expectation assumes segments spread *uniformly* over the
#: world. On a clustered map a small window over a dense region returns
#: more than this and still counts as short; nothing bounds that run, so
#: the tail of ``repro_server_loop_hold_seconds`` is the number to alert
#: on (docs/metrics.md).
SHORT_READ_ROWS = 256


def is_short_read(raw: Dict[str, Any], segment_count: int, world_size: float) -> bool:
    """Can this request, against an engine, neither block nor run long?

    True for ``ping``/``clock``/``point`` and for a ``nearest``/``window``
    whose expected result -- ``k``, or the window's share of the world's
    area times the segment count -- is at most :data:`SHORT_READ_ROWS`.
    Everything else is long or blocking: mutations (an apply is not
    bounded by :data:`SHORT_READ_ROWS`), ``batch``, ``checkpoint``, ``check``, ``health``,
    ``stats``, ``metrics``, ``explain``, ``trace``, ``profile`` (it
    sleeps), whole-map windows, large ``k``. A malformed read is not
    short either, so its ``bad_args`` is built where every other slow
    answer is. A pure function of the decoded request and two facts
    about the engine.

    Total: ``raw`` is wire JSON nobody has validated yet, and the caller
    is a transport's scheduler, so no argument may make this raise.
    """
    op = raw.get("op")
    if op in ("ping", "clock", "point"):
        return True
    try:
        if op == "nearest":
            return raw.get("k", 1) <= SHORT_READ_ROWS
        if op == "window":
            share = (
                abs(raw["x2"] - raw["x1"])
                * abs(raw["y2"] - raw["y1"])
                / (world_size * world_size)
            )
            return share * segment_count <= SHORT_READ_ROWS
    except (KeyError, TypeError, ValueError, ArithmeticError):
        # All that JSON values can raise above: a missing or non-numeric
        # argument, an integer no float holds (OverflowError). Malformed,
        # so not short, like every op not named above.
        pass
    return False


def error_envelope(exc: BaseException) -> Dict[str, str]:
    """Map an exception to the wire error object -- the ONE place the
    exception-class -> error-code policy lives.

    * :class:`ProtocolError` carries its own code (``unknown_op``,
      ``bad_args``, ``not_durable``, ``shard_unavailable``, ...).
    * ``KeyError`` is how the engine reports an unknown segment id.
    * Other ``ValueError``/``TypeError`` are argument problems.
    * Anything else is ``internal`` -- a bug, surfaced but contained.

    When the exception names an originating shard (the router relaying a
    worker failure sets ``shard_id``), the envelope carries it through so
    clients see *which* process failed, not just that one did.
    """
    if isinstance(exc, ProtocolError):
        code = exc.code
        message = str(exc)
    elif isinstance(exc, KeyError):
        code = "unknown_seg"
        message = str(exc.args[0]) if exc.args else str(exc)
    elif isinstance(exc, (ValueError, TypeError)):
        code = "bad_args"
        message = str(exc)
    else:
        code = "internal"
        message = str(exc)
    envelope = {"code": code, "message": message, "type": type(exc).__name__}
    shard_id = getattr(exc, "shard_id", None)
    if shard_id is not None:
        envelope["shard"] = shard_id
    return envelope


class Request:
    """One decoded wire request -- or the reason it cannot be served.

    ``error`` is set for an undecodable request (``raw`` is then ``None``)
    and for a refused ``"v"`` pin. Either still flows through
    :meth:`Protocol.run`, so its error envelope and its count are
    produced where every other request's are.
    """

    __slots__ = ("raw", "version", "error")

    def __init__(
        self,
        raw: Optional[Dict[str, Any]] = None,
        version: Optional[int] = None,
        error: Optional[Exception] = None,
    ) -> None:
        self.raw = raw
        self.version = version
        self.error = error


class Protocol:
    """Bytes -> envelope over one target, for a transport that speaks
    the wire ``versions`` given."""

    def __init__(
        self, target: Any, versions: Sequence[int] = (PROTOCOL_VERSION,)
    ) -> None:
        self.target = target
        self.versions = tuple(versions)
        self._route = getattr(target, "route", None)
        self._count = getattr(target, "count_request", None)

    def session(self, name: str) -> Any:
        """Per-connection state: an engine attributes counters to it."""
        return None if self._route is not None else self.target.session(name)

    def end_session(self, session: Any) -> None:
        """The connection that :meth:`session` was opened for has ended:
        the engine folds what it was charged into its ``closed`` row."""
        if session is not None:
            self.target.retire(session)

    def is_short(self, request: Request) -> bool:
        """:func:`is_short_read` for this target. Never for a router: its
        ``route`` scatters over blocking sockets whatever the op."""
        if self._route is not None or request.raw is None:
            return False
        index = self.target.index
        # The side of the square as large as the index's own world.
        return is_short_read(
            request.raw, len(index.ctx.segments), index.extent().area() ** 0.5
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_line(self, line: Any) -> Optional[Request]:
        """One v1 line; ``None`` for a blank one (no reply is owed)."""
        if not line or line.isspace():
            return None
        try:
            raw = _loads_object(line)
        except Exception as exc:  # answered by run(), never a disconnect
            return Request(error=exc)
        version = raw.get("v")
        if version is not None and (
            isinstance(version, bool)
            or not isinstance(version, int)
            or version not in self.versions
        ):
            speaks = " and ".join(f"v{v}" for v in self.versions)
            return Request(
                raw,
                error=ProtocolError(
                    f"unsupported protocol version {version!r}; this server "
                    f"speaks {speaks}"
                ),
            )
        return Request(raw, version)

    def decode_frame(self, body: bytes, flags: int = 0) -> Request:
        """One v2 request frame: its payload and its header's flag byte.

        A request frame sets no flag bit (:mod:`repro.aio.frames`); one
        that does is refused whole, so a peer speaking some other
        framing learns it from a ``bad_args`` on its request id. Inside
        v2 the version is settled: a ``"v"`` key in a frame is neither
        checked nor echoed.
        """
        try:
            if flags:
                raise ProtocolError(
                    f"request frame has flag bits set ({flags:#04x}); "
                    f"a request frame's flags byte must be 0"
                )
            return Request(_loads_object(body))
        except Exception as exc:
            return Request(error=exc)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, request: Request, session: Any = None, deferred: bool = False
    ) -> Tuple[Envelope, Optional[int]]:
        """Execute one decoded request; never raises.

        Returns ``(envelope, lsn)``. ``lsn`` is set only when ``deferred``
        is true and a durable mutation logged it: the engine skipped its
        inline fsync, and the caller must not send the envelope before an
        fsync covers that LSN (or must send :meth:`failed` instead).

        Call it on the thread that may block: the trace-context handoff
        is thread-local, so decode-to-envelope has to stay on one thread.
        """
        lsn: Optional[int] = None
        traced = False
        raw = request.raw
        op = "invalid" if raw is None else raw.get("op")
        try:
            if request.error is not None:
                raise request.error
            if TRACER.enabled:
                # Park the wire context (or clear a stale one an aborted
                # request left on this thread) for the tracer to consume.
                # Disabled tracing pays exactly the attribute check above.
                traced = True
                dtrace.set_incoming(dtrace.TraceContext.from_wire(raw.get("tc")))
            if self._route is not None:
                result = self._route(raw)
            else:
                result, lsn = self._execute(raw, session, deferred)
            envelope: Envelope = {"ok": True, "result": result}
        except Exception as exc:  # serve errors back, keep the connection
            envelope = _error(exc)
        if self._count is not None:
            self._count(str(op), envelope["ok"])
        if traced:
            attachment = dtrace.take_outbound()
            if attachment is not None:
                envelope["tc"] = attachment
        return _echo(envelope, request.version), lsn

    def respond_line(self, line: Any, session: Any = None) -> Optional[Envelope]:
        """One v1 line -> its envelope, committed inline (``None`` for a
        blank line). The whole protocol for a one-request-at-a-time
        transport."""
        request = self.decode_line(line)
        if request is None:
            return None
        return self.run(request, session)[0]

    def _execute(
        self, raw: Dict[str, Any], session: Any, deferred: bool
    ) -> Tuple[Any, Optional[int]]:
        op = raw.get("op")
        if op == "ping":
            return "pong", None
        if op == "clock":
            return clock_info(), None
        if op == "profile":
            return (
                PROFILER.run(
                    seconds=raw.get("seconds", 1.0), hz=raw.get("hz", 97)
                ),
                None,
            )
        engine = self.target
        request = parse_request(raw)
        if deferred and engine.durable and OPS[op].writes:
            result, lsn = engine.execute_deferred(request, session=session)
        else:
            result, lsn = engine.execute(request, session=session), None
        if op == "batch":
            # A dataclass engine-side; one JSON shape on every transport.
            result = {
                "results": result.results,
                "order": result.order,
                DISK_ACCESSES: result.disk_accesses,
            }
        return result, lsn

    # ------------------------------------------------------------------
    # Envelopes for decisions the transports make
    # ------------------------------------------------------------------
    @staticmethod
    def oversized(limit: int) -> Envelope:
        """The reply to a request the transport drained instead of read."""
        return _error(
            FrameTooLargeError(
                f"request exceeds the {limit}-byte frame cap; it was discarded"
            )
        )

    @staticmethod
    def failed(request: Request, exc: BaseException) -> Envelope:
        """The reply when the transport itself fails a decoded request:
        admission control refused to queue it, or -- after the envelope
        was built -- the fsync its ack waits for failed, which must turn
        the ack into an error (commit-before-ack)."""
        return _echo(_error(exc), request.version)


def _loads_object(data: Any) -> Dict[str, Any]:
    raw = json.loads(data)
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(raw).__name__}"
        )
    return raw


def _error(exc: BaseException) -> Envelope:
    envelope: Envelope = {"ok": False, "error": error_envelope(exc)}
    partial = getattr(exc, "partial", None)
    if partial is not None:
        envelope["partial"] = partial
    return envelope


def _echo(envelope: Envelope, version: Optional[int]) -> Envelope:
    if version is not None:
        envelope["v"] = version
    return envelope
