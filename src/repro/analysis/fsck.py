"""The index fsck: static integrity checking for built structures.

Entry points:

* :func:`check_index` -- walk a live (in-memory) index and verify the
  paper's invariants for its structure, plus the storage bookkeeping
  underneath it. Pages are read via the uncounted
  :meth:`~repro.storage.disk.DiskManager.peek`, so a check executes no
  queries, moves no counter and leaves the buffer pool as it found it.
  It is the only invariant checker: ``check_invariants()`` on an index
  is this, raising on an error-severity finding.
* :func:`check_snapshot` -- verify an on-disk snapshot file: codec
  header vs. manifest cross-checks first, then the full index walk over
  the reloaded disk.

Both return a flat list of :class:`~repro.analysis.findings.Finding`
records; an empty list means the structure is healthy. The CLI wrapper
(``python -m repro check``) renders them and exits nonzero when any
finding is an error.
"""

from __future__ import annotations

import os
from functools import singledispatch
from typing import BinaryIO, List, Union

from repro.analysis.findings import FSCK_RULES, Finding
from repro.analysis.fsck_grid import check_grid
from repro.analysis.fsck_pmr import check_pmr
from repro.analysis.fsck_rplus import check_rplus, check_true_rplus
from repro.analysis.fsck_rtree import check_rtree
from repro.analysis.fsck_storage import check_snapshot_header, check_storage
from repro.core import (
    GuttmanRTree,
    PMRQuadtree,
    RPlusTree,
    TrueRPlusTree,
    UniformGrid,
)
from repro.storage.codec import CodecError, read_header

__all__ = ["check_index", "check_snapshot", "FSCK_RULES"]


@singledispatch
def structure_rules(index) -> List[Finding]:
    """The rule set of ``index``'s own representation: registered per
    class, inherited by its variants (R* runs the R-tree's, k-d-B the
    R+'s, PM1/PM2/PM3 the PMR's)."""
    raise ValueError(f"no fsck rules are registered for {type(index).__name__}")


structure_rules.register(GuttmanRTree, check_rtree)
structure_rules.register(RPlusTree, check_rplus)
structure_rules.register(TrueRPlusTree, check_true_rplus)
structure_rules.register(PMRQuadtree, check_pmr)
structure_rules.register(UniformGrid, check_grid)


def check_index(index) -> List[Finding]:
    """Run every applicable fsck rule against a live index."""
    return structure_rules(index) + check_storage(index)


def check_snapshot(src: Union[str, os.PathLike, BinaryIO]) -> List[Finding]:
    """Verify a snapshot file written by :func:`repro.service.save_index`.

    Header-level cross-checks run first (manifest inventories vs. the
    page table, free list vs. dumped pages); if the snapshot can be
    opened at all, the reloaded index then gets the full
    :func:`check_index` treatment. A snapshot too damaged to open yields
    the header findings plus an ``FS01`` error carrying the codec error.
    """
    from repro.analysis.fsck_storage import FS01
    from repro.analysis.findings import error
    from repro.service.snapshot import open_index

    if hasattr(src, "read"):
        header = read_header(src)
        src.seek(0)
    else:
        with open(src, "rb") as fh:
            header = read_header(fh)
    findings = check_snapshot_header(header)
    try:
        index = open_index(src)
    except CodecError as exc:
        findings.append(
            error(FS01, None, str(src), f"snapshot cannot be opened: {exc}")
        )
        return findings
    return findings + check_index(index)
