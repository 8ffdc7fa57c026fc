"""Durability for the map server: write-ahead log, checkpoints, recovery.

The paper's structures are disk-resident indexes over *dynamic* maps --
road segments are inserted and deleted as maps change -- but a snapshot
alone loses every mutation since it was written. This package closes the
gap:

* :mod:`repro.wal.records` -- logical mutation records (insert/delete
  with monotonically increasing LSNs), length-prefixed and CRC-checked.
* :mod:`repro.wal.log` -- :class:`WriteAheadLog`: append-only file,
  fsynced group-commit batching, torn-tail-tolerant scanning.
* :mod:`repro.wal.store` -- :class:`DurableStore`: the checkpoint +
  manifest + log directory, atomic checkpointing that folds the log
  into a fresh snapshot, and :func:`open_durable` crash recovery that
  replays the log suffix (net inserts bulk-applied in Morton order,
  the space-filling-curve packing argument of bulk loading).
* :mod:`repro.wal.crashtest` -- the crash-injection harness (imported
  on demand; it pulls in the analysis and service layers).

Wire-up: ``QueryEngine(index, store=...)`` logs then applies mutations,
``MapServer`` exposes ``{"op": "checkpoint"}``, and the CLI grows
``serve --wal DIR``, ``checkpoint``, and ``recover`` commands. The fsck
(``python -m repro check --wal DIR``) validates a store end to end with
rules FS07..FS10.
"""

from repro.wal.log import LogScan, WriteAheadLog, scan_log
from repro.wal.records import (
    DeleteRecord,
    InsertRecord,
    WalError,
    WalRecord,
    decode_record,
    encode_record,
    frame_record,
)
from repro.wal.store import (
    DurableStore,
    ReplayResult,
    SimulatedCrash,
    open_durable,
    replay_records,
)

__all__ = [
    "DeleteRecord",
    "DurableStore",
    "InsertRecord",
    "LogScan",
    "ReplayResult",
    "SimulatedCrash",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
    "frame_record",
    "open_durable",
    "replay_records",
    "scan_log",
]
