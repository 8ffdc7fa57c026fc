"""The common interface all indexed structures implement.

The five queries of the paper (Section 5) are written once, against this
interface (:mod:`repro.core.queries`); each structure supplies candidate
generation and incremental-nearest expansion, and charges its own metrics
(disk accesses via its buffer pool, bounding box / bucket computations via
``ctx.counters.bbox_comps``).

Candidate methods may return duplicate segment ids (the disjoint
structures store a segment once per block it crosses); the query layer
deduplicates by id *before* fetching geometry, as any real implementation
would, since the id is available in the node.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, Iterable, List, NamedTuple, Optional, Set, Union

from repro.errors import SnapshotError
from repro.geometry import (
    Point,
    Rect,
    Segment,
    point_rect_distance2,
    rect_rect_distance2,
)
from repro.storage.context import StorageContext

#: The paper's world: maps are normalized to a 16K x 16K region (2^28 pixels).
WORLD_SIZE = 16384
WORLD_DEPTH = 14
WORLD = Rect(0, 0, WORLD_SIZE, WORLD_SIZE)


class SegmentQuery(NamedTuple):
    """A segment used *as the query* of a nearest search (Section 2 also
    motivates "the nearest line to a given ... line"). Carries the MBR so
    index expansions do not recompute it per entry."""

    segment: Segment
    mbr: Rect

    @classmethod
    def of(cls, segment: Segment) -> "SegmentQuery":
        return cls(segment, segment.mbr())


#: What nearest-neighbour searches accept.
NNQuery = Union[Point, SegmentQuery]


def query_lower_bound(query: NNQuery, rect: Rect) -> float:
    """Admissible lower bound on the squared distance from ``query`` to
    anything inside ``rect`` -- MINDIST for points, MBR-to-rect distance
    for segment queries."""
    if isinstance(query, SegmentQuery):
        return rect_rect_distance2(query.mbr, rect)
    return point_rect_distance2(query, rect)


class NNItem(NamedTuple):
    """A priority-queue element for incremental nearest-neighbour search.

    ``dist2`` is a lower bound on the squared distance from the query point
    to anything reachable through ``ref``. ``is_segment`` distinguishes
    data entries (``ref`` is a segment id) from index nodes (``ref`` is
    structure-specific).
    """

    dist2: float
    is_segment: bool
    ref: Any


def _no_snapshot(index: "SpatialIndex") -> SnapshotError:
    return SnapshotError(
        f"no snapshot support for {type(index).__name__}: it declares no "
        f"navigational state (see repro.core.SERVABLE)"
    )


class SpatialIndex(ABC):
    """A disk-resident spatial index over a segment table.

    Subclasses own a :class:`~repro.storage.context.StorageContext`; all
    node traffic must flow through ``ctx.pool`` and all geometry access
    through ``ctx.segments.fetch`` so the paper's three metrics are
    collected faithfully.

    A class *declares* itself, once, so that nothing outside it guesses
    its kind from its attributes: :meth:`params` / :meth:`state` /
    :meth:`reopen` (what a snapshot records and reads back),
    :meth:`page_inventories`, :meth:`extent` and :attr:`stock_search`.
    Whether an instance still honours its invariants is not the class's
    business but the fsck's (:func:`repro.analysis.check_index`);
    :meth:`check_invariants` is the tests' spelling of it.
    """

    #: Short display name used in tables ("R*", "R+", "PMR", ...): the
    #: class's row of :data:`repro.core.STRUCTURES` and a snapshot's kind.
    name: ClassVar[str] = "abstract"

    #: The stock loops that search this class -- ``"rtree"``
    #: (:mod:`repro.core.treesearch` over ``(rect, ref)`` pages) or
    #: ``"pmr"`` (directory walk plus B-tree scans) -- or ``None`` for
    #: loops of its own, which the vector kernel leaves to the scalar path.
    stock_search: ClassVar[Optional[str]] = None

    def __init__(self, ctx: StorageContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    # Declaration: parameters, navigational state, pages, world
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        """What :meth:`reopen` needs to build an empty twin of this index
        (a manifest's ``params``)."""
        raise _no_snapshot(self)

    def state(self) -> Dict[str, Any]:
        """The navigational state a snapshot must carry beside the pages,
        as manifest sections: ``state`` (root, height, counts, page ids),
        plus whatever else navigates (the PMR's ``btree`` and ``blocks``).
        Declaring it is what makes a structure snapshottable, hence
        servable; a variant whose inherited one would not restore it
        disclaims it (``state = SpatialIndex.state``)."""
        raise _no_snapshot(self)

    @classmethod
    def reopen(cls, ctx: StorageContext, params: Dict[str, Any], state=None):
        """An index of this class over ``ctx`` from what :meth:`params`
        and :meth:`state` returned. With ``state`` (the manifest; keys it
        does not own are ignored) it is bound to the pages already on
        ``ctx.disk`` -- nothing allocated, nothing written; without, it
        is the empty twin."""
        index = cls.__new__(cls)
        index.ctx = ctx
        index._open(params, state)
        return index

    def _open(self, params: Dict[str, Any], state) -> None:
        """Set the parameters, then bind to ``state`` -- or, given none,
        allocate the empty structure. Constructors end here too."""
        raise _no_snapshot(self)

    def page_inventories(self) -> Dict[str, Set[int]]:
        """Every page this index answers for, by the codec kind of its
        payload (``"rtree"``, ``"rplus"``, ``"btree"``, ``"segments"``)."""
        return {"segments": set(self.ctx.segments.page_ids)}

    def extent(self) -> Rect:
        """The world this index was built over. The R-trees adapt to
        their data and have none: they answer the paper's."""
        return WORLD

    @classmethod
    def extent_params(cls, extent: Rect) -> Dict[str, Any]:
        """The constructor keywords that place this class over ``extent``."""
        return {}

    def check_invariants(self) -> None:
        """``AssertionError``, carrying the rendered findings, when
        :func:`repro.analysis.check_index` reports an error (warnings
        pass). Peek-only, like the fsck it spells."""
        from repro.analysis import check_index, format_findings, has_errors

        findings = check_index(self)
        if has_errors(findings):
            raise AssertionError(format_findings(findings))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @abstractmethod
    def insert(self, seg_id: int) -> None:
        """Index the segment already stored in the segment table."""

    @abstractmethod
    def delete(self, seg_id: int) -> None:
        """Remove a segment from the index (not from the segment table)."""

    def bulk_load(self, seg_ids: Iterable[int]) -> None:
        """Insert many segments one by one (the paper builds dynamically)."""
        for seg_id in seg_ids:
            self.insert(seg_id)

    # ------------------------------------------------------------------
    # Candidate generation for the queries
    # ------------------------------------------------------------------
    @abstractmethod
    def candidate_ids_at_point(self, p: Point) -> List[int]:
        """Ids of segments whose stored region/MBR contains ``p``.

        May contain duplicates and false positives; never false negatives.
        """

    @abstractmethod
    def candidate_ids_in_rect(self, r: Rect) -> List[int]:
        """Ids of segments whose stored region/MBR meets ``r``.

        May contain duplicates and false positives; never false negatives.
        """

    # ------------------------------------------------------------------
    # Incremental nearest-neighbour expansion
    # ------------------------------------------------------------------
    @abstractmethod
    def nn_start(self, p: Point) -> List[NNItem]:
        """Initial queue items (typically the root)."""

    @abstractmethod
    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        """Expand a node reference previously produced by this index."""

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @abstractmethod
    def page_count(self) -> int:
        """Pages occupied by the index itself (segment table excluded)."""

    @abstractmethod
    def height(self) -> int:
        """Levels of paged structure a cold search descends."""

    @abstractmethod
    def entry_count(self) -> int:
        """Stored entries; exceeds the segment count for disjoint methods."""

    def segment_count(self) -> int:
        """Distinct segments indexed: the entry count, unless the
        structure duplicates entries and so keeps its own tally."""
        return self.entry_count()

    def bytes_used(self) -> int:
        """Index size as Table 1 counts it: whole pages, segment table excluded."""
        return self.page_count() * self.ctx.page_size

    # ------------------------------------------------------------------
    # Conveniences shared by implementations
    # ------------------------------------------------------------------
    @property
    def counters(self):
        return self.ctx.counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} segments={len(self.ctx.segments)} "
            f"pages={self.page_count()}>"
        )
