"""Single source of truth for the paper-metric counter names.

The five fields of :class:`repro.storage.counters.MetricsCounters` -- and
the ``disk_accesses`` alias the tables report -- appear as dictionary
keys in stats endpoints, bench records, EXPLAIN profiles, and Prometheus
mirrors. A hand-typed ``"segment_comps"`` in one of those places can
silently diverge from the counter it claims to report, so every layer
imports the names from here; lint rule RP03 flags counter-name string
literals anywhere else under ``src/``.

The async server's two dispatch families are named here as well: the
server records them, and the Prometheus help table and the CI smoke
look them up by the same names.

This module is deliberately import-free (no ``repro`` imports at all):
``repro.storage.counters`` and ``repro.obs.metrics`` both depend on it,
and it must never complete that cycle.
"""

from __future__ import annotations

from typing import Tuple

#: Buffer-pool read misses -- the paper's "disk accesses".
DISK_READS = "disk_reads"
#: Dirty pages written back on eviction or flush.
DISK_WRITES = "disk_writes"
#: Page requests satisfied from the pool.
BUFFER_HITS = "buffer_hits"
#: Segment-table fetches (each implies comparing real geometry).
SEGMENT_COMPS = "segment_comps"
#: Bounding box / bucket computations (Figure 7, Table 2).
BBOX_COMPS = "bbox_comps"
#: Reporting alias for ``disk_reads`` used by the tables and stats.
DISK_ACCESSES = "disk_accesses"

#: The mutable fields of ``MetricsCounters``, in declaration order.
COUNTER_FIELDS: Tuple[str, ...] = (
    DISK_READS,
    DISK_WRITES,
    BUFFER_HITS,
    SEGMENT_COMPS,
    BBOX_COMPS,
)

#: The three quantities the paper tabulates per query.
PAPER_METRICS: Tuple[str, ...] = (DISK_ACCESSES, SEGMENT_COMPS, BBOX_COMPS)

#: Fields owned by ``repro.storage`` (I/O accounting).
IO_FIELDS: Tuple[str, ...] = (DISK_READS, DISK_WRITES, BUFFER_HITS)

#: Fields ``repro.core`` may also charge (the measurement instrument).
COMP_FIELDS: Tuple[str, ...] = (SEGMENT_COMPS, BBOX_COMPS)

#: Requests the async server dispatched, by the thread that ran them:
#: label ``path`` is ``"loop"`` (short read, run inline on the event
#: loop) or ``"executor"`` (handed to a worker thread).
SERVER_DISPATCH_TOTAL = "repro_server_dispatch_total"
#: How long each loop-run request held the event loop (histogram).
SERVER_LOOP_HOLD_SECONDS = "repro_server_loop_hold_seconds"
