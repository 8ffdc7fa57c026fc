"""Distributed trace context: W3C-traceparent-style ids on the wire.

A :class:`TraceContext` is the triple a request carries across a process
boundary -- ``trace_id`` (16-byte hex, names the whole distributed
request), ``span_id`` (8-byte hex, names the sender's span that the
receiver's root must parent under), and the ``sampled`` flag (the head
decision, made once at the edge and inherited downstream so every
process keeps or skips *detail* consistently).

Wire form, on both protocols: an optional ``"tc"`` object in the JSON
request -- ``{"t": trace_id, "s": span_id, "f": flags}`` -- and on the
response envelope (where it may additionally carry ``"span"``, the
worker's local span subtree, when the request was sampled). A v1 line
and a v2 frame payload are the same JSON object, so there is one
encoding; servers that predate this module ignore unknown request keys,
so old peers are untouched.

The handoff between the server layer (which owns the wire) and the
engine (whose ``execute`` signature must not grow a parameter for this)
is a pair of thread-local slots: the server parks the incoming context
with :func:`set_incoming` just before dispatch, the tracer consumes it
in ``start_trace``; the tracer parks the response attachment with
:func:`set_outbound` in ``finish_trace``, the server collects it with
:func:`take_outbound` while building the envelope. Both servers run a
request start-to-finish on one thread (the async server inside one
executor thread), which is what makes the slots sound.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Dict, Optional

#: Bit 0 of the context flags: the head sampling decision.
FLAG_SAMPLED = 0x01

#: Hex digits in each id (16-byte trace id, 8-byte span id).
TRACE_ID_HEX = 32
SPAN_ID_HEX = 16

# Span ids are a random per-process prefix plus a counter: unique across
# processes (4 random prefix bytes) without an os.urandom call per span;
# together they fill the exact 8-byte id the wire form requires.
_ID_PREFIX = os.urandom(4).hex()
_ID_SEQ = itertools.count(1)


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return f"{_ID_PREFIX}{next(_ID_SEQ) & 0xFFFFFFFF:08x}"


def head_sampled(trace_id: str, rate: float) -> bool:
    """The deterministic head decision: hash the trace id against ``rate``.

    Every process that sees the same trace id reaches the same verdict,
    so a context-free retry samples consistently with the original.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return int(trace_id[:8], 16) / 0x100000000 < rate


class TraceContext:
    """One hop's worth of distributed trace identity."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    @classmethod
    def new_root(cls, rate: float) -> "TraceContext":
        trace_id = new_trace_id()
        return cls(trace_id, new_span_id(), head_sampled(trace_id, rate))

    def child(self) -> "TraceContext":
        """The context to inject into a downstream request: same trace,
        fresh span id (the downstream root's parent), inherited flag."""
        return TraceContext(self.trace_id, new_span_id(), self.sampled)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "t": self.trace_id,
            "s": self.span_id,
            "f": FLAG_SAMPLED if self.sampled else 0,
        }

    @classmethod
    def from_wire(cls, raw: Any) -> Optional["TraceContext"]:
        """Parse the ``"tc"`` request field; None when malformed.

        Tolerant by design: a bad context must degrade to "untraced",
        never fail the request it rode in on.
        """
        if not isinstance(raw, dict):
            return None
        trace_id, span_id = raw.get("t"), raw.get("s")
        if (
            not isinstance(trace_id, str)
            or len(trace_id) != TRACE_ID_HEX
            or not isinstance(span_id, str)
            or len(span_id) != SPAN_ID_HEX
        ):
            return None
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            return None
        flags = raw.get("f", 0)
        if not isinstance(flags, int):
            return None
        return cls(trace_id, span_id, bool(flags & FLAG_SAMPLED))


# ----------------------------------------------------------------------
# Thread-local server <-> engine handoff
# ----------------------------------------------------------------------
_local = threading.local()


def set_incoming(ctx: Optional[TraceContext]) -> None:
    """Park the request's wire context for the tracer to consume.

    Also clears any outbound attachment a previous request on this
    thread failed to collect, so one aborted request can never leak its
    trace identity into the next request's response.
    """
    _local.incoming = ctx
    _local.outbound = None


def take_incoming() -> Optional[TraceContext]:
    ctx = getattr(_local, "incoming", None)
    if ctx is not None:
        _local.incoming = None
    return ctx


def set_outbound(attachment: Dict[str, Any]) -> None:
    """Park the response's trace attachment for the server to collect."""
    _local.outbound = attachment


def take_outbound() -> Optional[Dict[str, Any]]:
    att = getattr(_local, "outbound", None)
    if att is not None:
        _local.outbound = None
    return att
