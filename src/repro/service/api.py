"""The wire's request model: one table, one row per op.

:func:`parse_request` turns a wire-protocol dict into the object
:meth:`repro.service.engine.QueryEngine.execute` runs. For a read that is
a :class:`~repro.core.queries.spec.QuerySpec` -- the same object a Python
caller builds, the result cache keys on and the traversal consumes;
for anything else it is a :class:`Command`, the op and its
checked arguments. :data:`OPS` declares each op once -- what checks its
wire arguments, what the engine does with them, whether it writes, what
a trace prints of it -- and ``parse_request``, the engine's dispatch, the
protocol core's deferred commit and the batch scheduler's barriers are
each one lookup in it.

Only what is true of *outside input* is checked here: the JSON type of a
field, a missing field, an integer no float holds. What makes a query
well-formed (sorted corners, ``k >= 1``, the window modes) is decided by
the ``QuerySpec`` factories, so a wire caller and a Python caller are
told the same thing and share cache entries. Refusals raise
:class:`~repro.errors.ProtocolError` (a ``ValueError``) carrying the
wire error code. :data:`PROTOCOL_VERSION` is the version clients may pin
with ``"v": 1`` (echoed in replies); the op table and the error codes
are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.core.queries.spec import QuerySpec
from repro.errors import ProtocolError
from repro.geometry import Segment
from repro.obs.trace import TRACER

#: The wire protocol version this server speaks. Requests may carry
#: ``"v": PROTOCOL_VERSION``; any other value is a ``bad_args`` error.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Outside-input checks
# ----------------------------------------------------------------------
def _require(raw: Dict[str, Any], key: str) -> Any:
    if key not in raw:
        raise ProtocolError(f"missing required field {key!r}")
    return raw[key]


def _number(raw: Dict[str, Any], key: str) -> float:
    try:  # a read pays for this on every request: no call, no isinstance
        value = raw[key]
    except KeyError:
        raise ProtocolError(f"missing required field {key!r}") from None
    if type(value) is float:
        # json.loads takes NaN and +-Infinity, and reads 1e400 as inf;
        # x - x is 0.0 for every finite float and NaN for those.
        if value - value == 0.0:
            return value
        raise ProtocolError(f"field {key!r} must be a finite number, got {value}")
    if type(value) is not int:  # exact types: JSON has no subclasses, and bool is one
        raise ProtocolError(
            f"field {key!r} must be a number, got {type(value).__name__}"
        )
    try:
        return float(value)
    except OverflowError:  # a JSON integer too large for any float
        raise ProtocolError(f"field {key!r} is out of range for a number") from None


def _integer(raw: Dict[str, Any], key: str, default: Optional[int] = None) -> int:
    value = raw.get(key, default)
    if value is None:
        raise ProtocolError(f"missing required field {key!r}")
    if type(value) is not int:
        raise ProtocolError(
            f"field {key!r} must be an integer, got {type(value).__name__}"
        )
    return value


def _choice(raw: Dict[str, Any], key: str, choices: tuple) -> str:
    """An optional field drawn from ``choices``; the first is the default."""
    value = raw.get(key, choices[0])
    if value not in choices:
        raise ProtocolError(f"field {key!r} must be one of {choices}, got {value!r}")
    return value


def _use_cache(raw: Dict[str, Any]) -> bool:
    """The one reader of the wire's ``use_cache``. False on a read -- or on
    a batch, for every read in it -- runs the traversal without consulting
    or filling the result cache."""
    use_cache = raw.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise ProtocolError(
            f"field 'use_cache' must be a boolean, got {type(use_cache).__name__}"
        )
    return use_cache


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
class Op(NamedTuple):
    """One row of :data:`OPS`: everything the service knows about an op.

    ``parse(raw)`` checks the wire dict and returns what it asks for: the
    :class:`QuerySpec` of a read, the keyword arguments of any other op.
    ``run(engine, session, **arguments)`` is what the engine does with
    those; it is None for a read, because the engine runs every QuerySpec
    one way (cache, latch, attribution, traversal). ``writes`` marks a
    mutation: its commit can be deferred to a group committer, in a
    batch it is a barrier, and a shard router sends one at a time.
    ``describe(arguments)`` is what a trace and the slow log print of
    them.
    """

    parse: Callable[[Dict[str, Any]], Any]
    run: Optional[Callable[..., Any]] = None
    writes: bool = False
    describe: Callable[[Dict[str, Any]], Dict[str, Any]] = dict


# The read parsers hand the factories bare tuples: a factory only unpacks
# its point or rectangle, and the NamedTuple costs 0.2 us a request.
def _point(raw: Dict[str, Any]) -> QuerySpec:
    return QuerySpec.point((_number(raw, "x"), _number(raw, "y")))


def _window(raw: Dict[str, Any]) -> QuerySpec:
    corners = (
        _number(raw, "x1"),
        _number(raw, "y1"),
        _number(raw, "x2"),
        _number(raw, "y2"),
    )
    return QuerySpec.window(corners, raw.get("mode", "intersects"))


def _nearest(raw: Dict[str, Any]) -> QuerySpec:
    return QuerySpec.nearest(
        (_number(raw, "x"), _number(raw, "y")), _integer(raw, "k", 1)
    )


def _batch(raw: Dict[str, Any]) -> Dict[str, Any]:
    """``requests`` stays a list of *wire dicts*: the batch executor parses
    each member when it runs the batch, so a bad member is that batch's
    structured error and nothing else's."""
    requests = _require(raw, "requests")
    if not isinstance(requests, list):
        raise ProtocolError(
            f"field 'requests' must be a list, got {type(requests).__name__}"
        )
    return {
        "requests": requests,
        "order": _choice(raw, "order", ("morton", "arrival")),
        "use_cache": _use_cache(raw),
    }


def _trace(raw: Dict[str, Any]) -> Dict[str, Any]:
    args = {key: raw[key] for key in ("n", "trace_id") if raw.get(key) is not None}
    if "n" in args and _integer(raw, "n") < 1:
        raise ProtocolError("field 'n' must be a positive integer")
    if not isinstance(args.get("trace_id", ""), str):
        raise ProtocolError("field 'trace_id' must be a string")
    return args


def _traces(engine, session, n: Optional[int] = None, trace_id: Optional[str] = None):
    """The last ``n`` traces, or -- with ``trace_id`` -- that one (a router
    answers it from its ring of stitched cross-process trees)."""
    if trace_id is not None:
        return {"tracing": TRACER.stats(), "trace": TRACER.find(trace_id)}
    return {"tracing": TRACER.stats(), "traces": TRACER.recent(n)}


def _explain(raw: Dict[str, Any]) -> Dict[str, Any]:
    """``{"op": "explain", "query": {"op": "window", ...}}``: the wrapped
    read runs for real, and the answer is its plan and profile."""
    query = _require(raw, "query")
    if not isinstance(query, dict) or query.get("op") not in READ_OPS:
        raise ProtocolError(
            f"field 'query' must be a request object of one of ops {READ_OPS}"
        )
    return {"query": parse_request(query)}


def _no_args(raw: Dict[str, Any]) -> Dict[str, Any]:
    return {}


#: Every op the engine serves. (``ping`` / ``clock`` / ``profile`` are
#: the protocol core's: they never reach an engine.)
OPS: Dict[str, Op] = {
    "point": Op(_point),
    "window": Op(_window),
    "nearest": Op(_nearest),
    "batch": Op(
        _batch,
        lambda engine, session, **batch: engine.batch.execute(
            session=session, **batch
        ),
        describe=lambda a: {**a, "requests": len(a["requests"])},
    ),
    "insert": Op(
        lambda raw: {name: _number(raw, name) for name in Segment._fields},
        lambda engine, session, **xy: engine._apply_insert(Segment(**xy), session),
        writes=True,
    ),
    "delete": Op(
        lambda raw: {"seg_id": _integer(raw, "seg_id")},
        lambda engine, session, seg_id: engine._apply_delete(seg_id, session),
        writes=True,
    ),
    "checkpoint": Op(
        _no_args, lambda engine, session: engine._apply_checkpoint(session, None)
    ),
    "stats": Op(_no_args, lambda engine, session: engine.stats()),
    "check": Op(_no_args, lambda engine, session: engine.check()),
    "health": Op(_no_args, lambda engine, session: engine.refresh_health()),
    "trace": Op(_trace, _traces),
    "metrics": Op(
        lambda raw: {"format": _choice(raw, "format", ("json", "prom"))},
        lambda engine, session, format: engine.export_metrics(format),
    ),
    "explain": Op(
        _explain,
        lambda engine, session, query: engine._explain(query, session),
        describe=lambda a: {"query_op": a["query"].op, **a["query"].describe()},
    ),
}

#: The reads: what EXPLAIN wraps, and what a batch Morton-schedules
#: between its writes. Nothing else makes sense grouped.
READ_OPS = tuple(op for op, row in OPS.items() if row.run is None)
BATCH_OPS = READ_OPS + tuple(op for op, row in OPS.items() if row.writes)


def _row(op: Any) -> Op:
    try:
        return OPS[op]
    except (KeyError, TypeError):  # TypeError: JSON that cannot be a key
        raise ProtocolError(f"unknown op {op!r}", code="unknown_op") from None


class Command:
    """Any op but a read, checked: the op and its arguments by name.

    (A read is a :class:`QuerySpec`.) ``args`` are the keyword arguments
    of the op's ``run``; building one for an op outside :data:`OPS` is
    the ``unknown_op`` error.
    """

    __slots__ = ("op", "args")

    def __init__(self, op: str, **args: Any) -> None:
        _row(op)
        self.op = op
        self.args = args

    def describe(self) -> Dict[str, Any]:
        return OPS[self.op].describe(self.args)


def parse_request(raw: Dict[str, Any]) -> Any:
    """The request a wire-protocol dict describes, checked: a
    :class:`QuerySpec` for a read, a :class:`Command` otherwise.

    Raises :class:`ProtocolError` with code ``unknown_op`` for an op
    outside the table, ``bad_args`` for missing/mis-typed fields.
    """
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(raw).__name__}"
        )
    op = raw.get("op")
    row = _row(op)
    if row.run is not None:
        return Command(op, **row.parse(raw))
    try:
        spec = row.parse(raw)
    except ValueError as exc:  # a factory's refusal is a bad argument here
        raise ProtocolError(str(exc)) from None
    if "use_cache" in raw and not _use_cache(raw):
        spec.use_cache = False
    return spec


def parse_batch_item(raw: Dict[str, Any]) -> Any:
    """Parse one batch member, restricted to the batchable ops."""
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"batch items must be objects, got {type(raw).__name__}"
        )
    if raw.get("op") not in BATCH_OPS:
        raise ProtocolError(f"batch cannot execute op {raw.get('op')!r}")
    return parse_request(raw)
