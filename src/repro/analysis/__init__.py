"""Static analysis for the reproduction: index fsck + project lint.

Two pillars, both producing structured
:class:`~repro.analysis.findings.Finding` records:

* :mod:`repro.analysis.fsck` -- ``check_index`` / ``check_snapshot``
  statically verify the paper's per-structure invariants (R* MBR
  containment and fill bounds, R+ disjoint decomposition and leaf
  completeness, PMR split-once rule over Morton-ordered B-tree tuples)
  plus the storage bookkeeping (inventories, free list, segment table)
  without executing queries or moving a counter.
* :mod:`repro.analysis.lint` -- an AST pass enforcing the measurement
  discipline of this codebase (RP01, RP03..RP05; see the module docstring
  for the rules and the suppression syntax).
* :mod:`repro.analysis.concurrency` -- a whole-program lock-discipline
  pass (CC01..CC05): lock-order inversions, blocking calls under a
  lock, lockset violations, manual acquire/release, unowned threads.
  Its runtime complement is :mod:`repro.sanitize`.
* :mod:`repro.analysis.fsck_wal` -- ``check_wal`` / ``check_durable``
  extend the fsck to the durability layer (rules FS07..FS10: log
  framing and CRCs, LSN contiguity, checkpoint-manifest vs. snapshot
  vs. log-tail consistency).
* :mod:`repro.analysis.fsck_shards` -- ``check_shard_set`` extends it
  again to a sharded deployment (rules SH01..SH05: manifest validity,
  per-shard store presence, replicated-table agreement, region/index
  consistency, stale address files), running ``check_durable`` on
  every member store.

CLI: ``python -m repro check`` (``--wal DIR`` for a durable store,
``--shards DIR`` for a shard set) and ``python -m repro lint`` (the RP
and CC passes together); service hook: ``{"op": "check"}`` against a
running map server or shard router.
"""

from importlib import import_module

#: Where each public name lives. Nothing is imported until a name is
#: first read: an opener that needs only ``findings`` and
#: ``fsck_storage`` does not pay for the linters. A rule registers when
#: its module is imported, so :data:`FSCK_RULES` / :data:`LINT_RULES`
#: list the rules of the modules loaded so far.
_EXPORTS = {
    "ERROR": "findings",
    "FSCK_RULES": "findings",
    "Finding": "findings",
    "LINT_RULES": "findings",
    "WARNING": "findings",
    "format_findings": "findings",
    "has_errors": "findings",
    "sort_findings": "findings",
    "check_index": "fsck",
    "check_snapshot": "fsck",
    "check_shard_set": "fsck_shards",
    "check_durable": "fsck_wal",
    "check_wal": "fsck_wal",
    "lint_file": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "lint_concurrency_paths": "concurrency",
    "lint_concurrency_source": "concurrency",
    "lint_concurrency_sources": "concurrency",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)
