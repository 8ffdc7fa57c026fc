"""The index fsck: static integrity checking for built structures.

Entry points:

* :func:`check_index` -- walk a live (in-memory) index and verify the
  paper's invariants for its structure, plus the storage bookkeeping
  underneath it. Pages are read via the uncounted
  :meth:`~repro.storage.disk.DiskManager.peek`, so a check executes no
  queries, moves no counter and leaves the buffer pool as it found it.
  It is the only invariant checker: ``check_invariants()`` on an index
  is this, raising on an error-severity finding.
* :func:`check_snapshot` -- verify an on-disk snapshot file: the header
  rules the opener refuses on first, then the full index walk over the
  reloaded disk.

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
from repro.analysis.fsck_pmr import check_pmr
from repro.analysis.fsck_rplus import check_rplus
from repro.analysis.fsck_rtree import check_rtree
from repro.analysis.fsck_storage import check_storage
from repro.core import GuttmanRTree, PMRQuadtree, RPlusTree
from repro.storage.codec import read_header

__all__ = ["check_index", "check_snapshot", "FSCK_RULES"]


@singledispatch
def structure_rules(index) -> List[Finding]:
    """The rule set of ``index``'s own representation: registered per
    class, inherited by its variants (R* runs the R-tree's)."""
    raise ValueError(f"no fsck rules are registered for {type(index).__name__}")


structure_rules.register(GuttmanRTree, check_rtree)
structure_rules.register(RPlusTree, check_rplus)
structure_rules.register(PMRQuadtree, check_pmr)


def check_index(index) -> List[Finding]:
    """Run every applicable fsck rule against a live index."""
    return structure_rules(index) + check_storage(index)


def check_snapshot(src: Union[str, os.PathLike, BinaryIO]) -> List[Finding]:
    """Verify a snapshot file written by :func:`repro.service.save_index`.

    Read once, by the opener's own loader: the header rules run first,
    and a snapshot they pass is loaded and gets the full
    :func:`check_index` walk. One they fail is not opened -- by this
    check or by :func:`~repro.service.open_index` -- and its findings
    are the report. A file that is no dump at all raises
    :class:`~repro.errors.CodecError`.
    """
    from repro.service.snapshot import load_index, stream

    with stream(src) as fh:
        index, findings = load_index(fh, read_header(fh))
    return findings if index is None else findings + check_index(index)
