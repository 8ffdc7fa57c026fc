"""The map-server subsystem: snapshots, a concurrent query service, and
a JSON-over-TCP front end.

The rest of the package builds and measures Hoel & Samet's structures;
this package *serves* them:

* :mod:`repro.service.snapshot` -- :func:`save_index` / :func:`open_index`
  persist a built index (pages **and** manifest: kind, root page, height,
  parameters, segment-table head) so a loaded snapshot is queryable with
  zero rebuild inserts.
* :mod:`repro.service.engine` -- :class:`QueryEngine`, a thread-safe read
  path: one shared buffer pool behind a counted latch, per-session metric
  attribution, and an invalidating LRU result cache.
* :mod:`repro.service.cache` -- the :class:`ResultCache` LRU.
* :mod:`repro.service.batch` -- :class:`BatchExecutor`, which reorders
  grouped queries by the Morton key of their centroid to maximize
  buffer-pool reuse.
* :mod:`repro.service.protocol` -- :class:`Protocol`, the sans-IO core
  every transport calls: request bytes in, response envelope out.
* :mod:`repro.service.server` -- :class:`MapServer`, the threaded
  line-delimited-JSON transport (``python -m repro serve``). With
  ``--wal DIR`` it serves a durable store (:mod:`repro.wal`): mutations
  are write-ahead logged before they are applied and
  ``{"op": "checkpoint"}`` folds the log into a fresh snapshot.
* :mod:`repro.service.api` -- the op table (:data:`OPS`, one row per
  op) and :func:`parse_request`, which turns a wire dict into the
  :class:`~repro.core.queries.spec.QuerySpec` (a read) or
  :class:`Command` (anything else) that :meth:`QueryEngine.execute` --
  the single dispatch point, where tracing and metrics
  (:mod:`repro.obs`) attach -- runs.
"""

from repro.service.api import (
    OPS,
    PROTOCOL_VERSION,
    Command,
    parse_batch_item,
    parse_request,
)
from repro.service.batch import BatchExecutor, BatchResult
from repro.service.cache import ResultCache
from repro.service.engine import QueryEngine, QuerySession
from repro.service.protocol import Protocol, error_envelope
from repro.service.server import MapServer, send_request
from repro.service.snapshot import open_index, save_index, snapshot_info


__all__ = [
    "BatchExecutor",
    "BatchResult",
    "Command",
    "MapServer",
    "OPS",
    "PROTOCOL_VERSION",
    "Protocol",
    "QueryEngine",
    "QuerySession",
    "ResultCache",
    "error_envelope",
    "open_index",
    "parse_batch_item",
    "parse_request",
    "save_index",
    "send_request",
    "snapshot_info",
]
