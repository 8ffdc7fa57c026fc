"""Typed requests: the one shape every query takes through the engine.

The service used to have three request surfaces -- ``engine.window(...)``
kwargs, batch dicts, and wire-protocol JSON -- each validating (or not)
on its own. This module gives them one: every operation is a dataclass,
canonicalized and validated at construction, and
:meth:`repro.service.engine.QueryEngine.execute` is the single dispatch
point that runs any of them. The old ``engine.point/window/nearest/...``
methods survive as thin wrappers that build a request and call
``execute``, so existing callers -- and the result cache's canonicalized
keys -- are unchanged.

Canonicalization happens in ``__init__``: a :class:`WindowQuery` sorts
its corners, every coordinate becomes ``float``, and :meth:`cache_key`
on the read queries returns exactly the tuple the result cache has
always used. Validation failures raise
:class:`~repro.errors.ProtocolError` (a ``ValueError``) carrying the
wire error code. All requests are immutable by convention -- they are
shared across threads once built; the rarely-constructed ops enforce it
with ``frozen=True``, while the three per-request read queries trade
that enforcement for construction speed (see :class:`PointQuery`).

:func:`parse_request` converts a wire-protocol dict into a typed
request; :data:`PROTOCOL_VERSION` is the version clients may pin with
``"v": 1`` (echoed in replies). The op -> class table and the error
codes are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.errors import ProtocolError

#: The wire protocol version this server speaks. Requests may carry
#: ``"v": PROTOCOL_VERSION``; any other value is a ``bad_args`` error.
PROTOCOL_VERSION = 1

#: Window query modes accepted on the wire (mirrors repro.core.queries).
WINDOW_MODES = ("intersects", "contains", "clips")


def _to_float(value: Any, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"field {field_name!r} must be a number, got {type(value).__name__}"
        )
    try:
        return float(value)
    except OverflowError:  # a JSON integer too large for any float
        raise ProtocolError(
            f"field {field_name!r} is out of range for a number"
        ) from None


def _require(raw: Dict[str, Any], key: str) -> Any:
    if key not in raw:
        raise ProtocolError(f"missing required field {key!r}")
    return raw[key]


def _number(raw: Dict[str, Any], key: str) -> float:
    return _to_float(_require(raw, key), key)


def _integer(raw: Dict[str, Any], key: str, default: Optional[int] = None) -> int:
    if key not in raw:
        if default is None:
            raise ProtocolError(f"missing required field {key!r}")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"field {key!r} must be an integer, got {type(value).__name__}"
        )
    return value


@dataclass(slots=True, init=False)
class PointQuery:
    """Query 1: which segments have an endpoint at ``(x, y)``?

    The three read queries hand-write ``__init__`` (``init=False``)
    with plain attribute stores: the generated ``__init__`` plus a
    ``__post_init__`` re-pass costs ~4x as much, and one of these is
    constructed for every service request. They are immutable by
    convention (shared across threads; never assign to their fields) --
    ``frozen=True`` would put ``object.__setattr__`` back on the hot
    path, which is most of that cost.
    """

    OP: ClassVar[str] = "point"

    x: float
    y: float
    use_cache: bool = True

    def __init__(self, x: Any, y: Any, use_cache: bool = True) -> None:
        self.x = x if type(x) is float else _to_float(x, "x")
        self.y = y if type(y) is float else _to_float(y, "y")
        self.use_cache = use_cache

    def cache_key(self) -> Tuple:
        return ("point", self.x, self.y)

    def describe(self) -> Dict[str, Any]:
        return {"x": self.x, "y": self.y}


@dataclass(slots=True, init=False)
class WindowQuery:
    """Query 5: which segments meet the (canonicalized) window?"""

    OP: ClassVar[str] = "window"

    x1: float
    y1: float
    x2: float
    y2: float
    mode: str = "intersects"
    use_cache: bool = True

    def __init__(
        self,
        x1: Any,
        y1: Any,
        x2: Any,
        y2: Any,
        mode: str = "intersects",
        use_cache: bool = True,
    ) -> None:
        if type(x1) is not float:
            x1 = _to_float(x1, "x1")
        if type(y1) is not float:
            y1 = _to_float(y1, "y1")
        if type(x2) is not float:
            x2 = _to_float(x2, "x2")
        if type(y2) is not float:
            y2 = _to_float(y2, "y2")
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        if mode not in WINDOW_MODES:
            raise ProtocolError(
                f"field 'mode' must be one of {WINDOW_MODES}, got {mode!r}"
            )
        self.x1 = x1
        self.y1 = y1
        self.x2 = x2
        self.y2 = y2
        self.mode = mode
        self.use_cache = use_cache

    def cache_key(self) -> Tuple:
        return ("window", self.x1, self.y1, self.x2, self.y2, self.mode)

    def describe(self) -> Dict[str, Any]:
        return {
            "x1": self.x1,
            "y1": self.y1,
            "x2": self.x2,
            "y2": self.y2,
            "mode": self.mode,
        }


@dataclass(slots=True, init=False)
class NearestQuery:
    """Query 3 (k-nearest): ``(seg_id, dist^2)`` pairs, nearest first."""

    OP: ClassVar[str] = "nearest"

    x: float
    y: float
    k: int = 1
    use_cache: bool = True

    def __init__(
        self, x: Any, y: Any, k: int = 1, use_cache: bool = True
    ) -> None:
        if type(k) is not int and (
            isinstance(k, bool) or not isinstance(k, int)
        ):
            raise ProtocolError(
                f"field 'k' must be an integer, got {type(k).__name__}"
            )
        if k < 1:
            raise ProtocolError(f"k must be >= 1, got {k}")
        self.x = x if type(x) is float else _to_float(x, "x")
        self.y = y if type(y) is float else _to_float(y, "y")
        self.k = k
        self.use_cache = use_cache

    def cache_key(self) -> Tuple:
        return ("nearest", self.x, self.y, self.k)

    def describe(self) -> Dict[str, Any]:
        return {"x": self.x, "y": self.y, "k": self.k}


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """A group of requests executed with locality-aware scheduling.

    ``requests`` stays a tuple of *wire-shaped dicts*: the batch executor
    parses each into a typed request at dispatch time, so a bad item is a
    structured error for that batch without invalidating the whole
    protocol stream.
    """

    OP: ClassVar[str] = "batch"

    requests: Tuple[Dict[str, Any], ...]
    order: str = "morton"
    use_cache: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.requests, tuple):
            try:
                object.__setattr__(self, "requests", tuple(self.requests))
            except TypeError:
                raise ProtocolError(
                    "field 'requests' must be a list of request objects"
                ) from None
        for item in self.requests:
            if not isinstance(item, dict):
                raise ProtocolError(
                    f"batch items must be objects, got {type(item).__name__}"
                )

    def describe(self) -> Dict[str, Any]:
        return {"requests": len(self.requests), "order": self.order}


@dataclass(frozen=True, slots=True)
class Insert:
    """Append a new segment to the table and index it."""

    OP: ClassVar[str] = "insert"

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, name, _to_float(getattr(self, name), name))

    def describe(self) -> Dict[str, Any]:
        return {"x1": self.x1, "y1": self.y1, "x2": self.x2, "y2": self.y2}


@dataclass(frozen=True, slots=True)
class Delete:
    """Unindex the segment with id ``seg_id``."""

    OP: ClassVar[str] = "delete"

    seg_id: int

    def __post_init__(self) -> None:
        if isinstance(self.seg_id, bool) or not isinstance(self.seg_id, int):
            raise ProtocolError(
                f"field 'seg_id' must be an integer, got "
                f"{type(self.seg_id).__name__}"
            )

    def describe(self) -> Dict[str, Any]:
        return {"seg_id": self.seg_id}


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """Fold the WAL into a fresh snapshot (durable engines only)."""

    OP: ClassVar[str] = "checkpoint"

    def describe(self) -> Dict[str, Any]:
        return {}


@dataclass(frozen=True, slots=True)
class Stats:
    """The full observability snapshot."""

    OP: ClassVar[str] = "stats"

    def describe(self) -> Dict[str, Any]:
        return {}


@dataclass(frozen=True, slots=True)
class Check:
    """Run the static index fsck under the latch."""

    OP: ClassVar[str] = "check"

    def describe(self) -> Dict[str, Any]:
        return {}


@dataclass(frozen=True, slots=True)
class Trace:
    """Read back the last ``n`` traces -- or one trace by id.

    With ``trace_id`` set the response is ``{"trace": <tree or null>}``:
    the distributed-trace lookup (the router answers it from its ring of
    stitched cross-process trees).
    """

    OP: ClassVar[str] = "trace"

    n: Optional[int] = None
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n is not None and (
            isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1
        ):
            raise ProtocolError("field 'n' must be a positive integer")
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise ProtocolError("field 'trace_id' must be a string")

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.n is not None:
            out["n"] = self.n
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


#: Ops EXPLAIN can wrap: the read queries whose traversals are profiled.
EXPLAIN_OPS = ("point", "window", "nearest")


@dataclass(frozen=True, slots=True)
class Explain:
    """Run a read query with full per-level cost attribution.

    Wraps a typed :class:`PointQuery` / :class:`WindowQuery` /
    :class:`NearestQuery` (wire shape: ``{"op": "explain", "query":
    {"op": "window", ...}}``). The wrapped query executes for real --
    same traversal, same counters charged to the session -- but bypasses
    the result cache and returns the structured plan/profile instead of
    the bare result.
    """

    OP: ClassVar[str] = "explain"

    query: Any

    def __post_init__(self) -> None:
        if not isinstance(self.query, (PointQuery, WindowQuery, NearestQuery)):
            raise ProtocolError(
                f"explain wraps one of ops {EXPLAIN_OPS}, got "
                f"{type(self.query).__name__}"
            )

    def describe(self) -> Dict[str, Any]:
        out = {"query_op": self.query.OP}
        out.update(self.query.describe())
        return out


@dataclass(frozen=True, slots=True)
class Health:
    """Recompute and return the served index's structural health."""

    OP: ClassVar[str] = "health"

    def describe(self) -> Dict[str, Any]:
        return {}


@dataclass(frozen=True, slots=True)
class Metrics:
    """Export the process-wide metrics registry."""

    OP: ClassVar[str] = "metrics"

    format: str = "json"

    def __post_init__(self) -> None:
        if self.format not in ("json", "prom"):
            raise ProtocolError(
                f"field 'format' must be 'json' or 'prom', got {self.format!r}"
            )

    def describe(self) -> Dict[str, Any]:
        return {"format": self.format}


#: Every request type ``QueryEngine.execute`` accepts.
REQUEST_TYPES = (
    PointQuery,
    WindowQuery,
    NearestQuery,
    BatchRequest,
    Insert,
    Delete,
    Checkpoint,
    Stats,
    Check,
    Trace,
    Metrics,
    Explain,
    Health,
)

#: Ops allowed inside a batch: reads are Morton-schedulable, mutations
#: are barriers; everything else makes no sense grouped.
BATCH_OPS = ("point", "window", "nearest", "insert", "delete")


def parse_request(raw: Dict[str, Any]) -> Any:
    """Build the typed request a wire-protocol dict describes.

    Raises :class:`ProtocolError` with code ``unknown_op`` for an op
    outside the table, ``bad_args`` for missing/mis-typed fields.
    """
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(raw).__name__}"
        )
    op = raw.get("op")
    # The read ops dominate service traffic, so they index the dict
    # directly and let __post_init__ do the (single) validation pass;
    # the KeyError catch keeps missing-field errors as bad_args.
    try:
        if op == "point":
            return PointQuery(raw["x"], raw["y"])
        if op == "window":
            return WindowQuery(
                raw["x1"],
                raw["y1"],
                raw["x2"],
                raw["y2"],
                mode=raw.get("mode", "intersects"),
            )
        if op == "nearest":
            return NearestQuery(raw["x"], raw["y"], k=raw.get("k", 1))
    except KeyError as exc:
        raise ProtocolError(
            f"missing required field {exc.args[0]!r}"
        ) from None
    if op == "batch":
        requests = _require(raw, "requests")
        if not isinstance(requests, list):
            raise ProtocolError(
                f"field 'requests' must be a list, got "
                f"{type(requests).__name__}"
            )
        order = raw.get("order", "morton")
        if order not in ("arrival", "morton"):
            raise ProtocolError(
                f"field 'order' must be 'arrival' or 'morton', got {order!r}"
            )
        use_cache = raw.get("use_cache", True)
        if not isinstance(use_cache, bool):
            raise ProtocolError(
                f"field 'use_cache' must be a boolean, got "
                f"{type(use_cache).__name__}"
            )
        return BatchRequest(tuple(requests), order=order, use_cache=use_cache)
    if op == "insert":
        return Insert(
            _number(raw, "x1"),
            _number(raw, "y1"),
            _number(raw, "x2"),
            _number(raw, "y2"),
        )
    if op == "delete":
        return Delete(_integer(raw, "seg_id"))
    if op == "checkpoint":
        return Checkpoint()
    if op == "stats":
        return Stats()
    if op == "check":
        return Check()
    if op == "trace":
        return Trace(n=raw.get("n"), trace_id=raw.get("trace_id"))
    if op == "metrics":
        return Metrics(format=raw.get("format", "json"))
    if op == "explain":
        inner_raw = _require(raw, "query")
        if not isinstance(inner_raw, dict):
            raise ProtocolError(
                f"field 'query' must be a request object, got "
                f"{type(inner_raw).__name__}"
            )
        if inner_raw.get("op") not in EXPLAIN_OPS:
            raise ProtocolError(
                f"explain wraps one of ops {EXPLAIN_OPS}, got "
                f"{inner_raw.get('op')!r}"
            )
        return Explain(parse_request(inner_raw))
    if op == "health":
        return Health()
    raise ProtocolError(f"unknown op {op!r}", code="unknown_op")


def parse_batch_item(raw: Dict[str, Any], use_cache: bool = True) -> Any:
    """Parse one batch member, restricted to the batchable ops."""
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"batch items must be objects, got {type(raw).__name__}"
        )
    op = raw.get("op")
    if op not in BATCH_OPS:
        raise ProtocolError(f"batch cannot execute op {op!r}")
    request = parse_request(raw)
    if not use_cache and hasattr(request, "use_cache"):
        from dataclasses import replace

        request = replace(request, use_cache=False)
    return request
