"""The shard map: contiguous Hilbert-key ranges over the paper's grid.

A shard map carves the ``world_size`` x ``world_size`` grid into
``4^order`` Hilbert cells (the curve of :func:`repro.core.pmr.locational.
hilbert_index` at ``order`` bits per axis) and assigns each shard one
contiguous half-open key range ``[lo, hi)``. Contiguity on the curve is
what makes the split useful: the Hilbert curve's locality means a
shard's cells form a compact blob of the map, so a window query touches
few shards (the hyperorthogonal-curve argument from the related work).

The manifest is one JSON file (:data:`SHARD_MAP_NAME`) at the shard-set
root::

    {"version": 1, "epoch": 1, "order": 3, "world_size": 16384,
     "shards": [{"id": "s0", "lo": 0, "hi": 16}, ...]}

``epoch`` increments on every rebalance; writers swap the file
atomically (temp + ``os.replace``) so a router reloading mid-split sees
either the old map or the new one, never a torn mix. Each shard's store
lives in the subdirectory named by its id.

Ranges must tile ``[0, 4^order)`` exactly: every cell is owned by one
shard, so every point of the world is owned by exactly one shard and a
segment straddling a boundary is *indexed* by each shard whose region
its bounding box touches (the router deduplicates by seg_id on merge).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.interface import WORLD_SIZE
from repro.core.pmr.locational import hilbert_index, hilbert_point
from repro.geometry import Rect, Segment
from repro.wal.store import atomic_publish

SHARD_MAP_NAME = "repro.shardmap"
SHARD_MAP_VERSION = 1

#: Default curve order for new shard sets: 4^3 = 64 cells, each
#: world_size/8 on a side -- fine enough to balance a handful of shards,
#: coarse enough that routing tests stay O(cells).
DEFAULT_ORDER = 3


def segment_mbr(segment: Segment) -> Rect:
    """The axis-aligned bounding rectangle of a segment."""
    return Rect(
        min(segment.x1, segment.x2),
        min(segment.y1, segment.y2),
        max(segment.x1, segment.x2),
        max(segment.y1, segment.y2),
    )


@dataclass(frozen=True)
class ShardSpec:
    """One shard: an id (also its store directory name) and its
    half-open Hilbert-key range ``[lo, hi)``."""

    shard_id: str
    lo: int
    hi: int

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.shard_id, "lo": self.lo, "hi": self.hi}


class ShardMap:
    """An epoch-stamped assignment of Hilbert-key ranges to shards."""

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        order: int = DEFAULT_ORDER,
        world_size: float = WORLD_SIZE,
        epoch: int = 1,
    ) -> None:
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = order
        self.world_size = float(world_size)
        self.epoch = epoch
        self.shards: Tuple[ShardSpec, ...] = tuple(
            sorted(shards, key=lambda s: s.lo)
        )
        total = 4**order
        ids = [s.shard_id for s in self.shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in {ids}")
        cursor = 0
        for spec in self.shards:
            if spec.lo != cursor or spec.hi <= spec.lo:
                raise ValueError(
                    f"shard ranges must tile [0, {total}) contiguously; "
                    f"{spec.shard_id} spans [{spec.lo}, {spec.hi}) after "
                    f"cell {cursor}"
                )
            cursor = spec.hi
        if cursor != total:
            raise ValueError(
                f"shard ranges cover [0, {cursor}) but the order-{order} "
                f"curve has {total} cells"
            )
        self._by_id = {s.shard_id: s for s in self.shards}
        # Per-shard cell rectangles (and a bounding extent for the fast
        # reject): [lo, hi) on the curve -> that many grid cells.
        cs = self.world_size / (1 << order)
        self._cell_rects: Dict[str, List[Rect]] = {}
        self._extents: Dict[str, Rect] = {}
        for spec in self.shards:
            rects = []
            for d in range(spec.lo, spec.hi):
                cx, cy = hilbert_point(order, d)
                rects.append(
                    Rect(cx * cs, cy * cs, (cx + 1) * cs, (cy + 1) * cs)
                )
            self._cell_rects[spec.shard_id] = rects
            self._extents[spec.shard_id] = Rect.union_of(rects)

    # ------------------------------------------------------------------
    # Lookup and geometry
    # ------------------------------------------------------------------
    def shard(self, shard_id: str) -> ShardSpec:
        spec = self._by_id.get(shard_id)
        if spec is None:
            raise KeyError(
                f"unknown shard {shard_id!r}; the map holds "
                f"{sorted(self._by_id)}"
            )
        return spec

    def extent(self, spec: ShardSpec) -> Rect:
        """Bounding box of the shard's cells (a fast-reject superset of
        its true region, which is the cell union)."""
        return self._extents[spec.shard_id]

    def _clip(self, rect: Rect) -> Rect:
        w = self.world_size
        return Rect(
            min(max(rect.xmin, 0.0), w),
            min(max(rect.ymin, 0.0), w),
            min(max(rect.xmax, 0.0), w),
            min(max(rect.ymax, 0.0), w),
        )

    def covers(self, spec: ShardSpec, rect: Rect) -> bool:
        """Does the shard's cell union intersect ``rect``?

        The rect is clipped into the world first, so geometry outside
        the grid is owned by the boundary shards rather than nobody.
        Intersection is closed: a rect on a cell edge belongs to both
        neighbours, which is deliberately conservative -- a boundary
        segment gets indexed on each side and the router deduplicates.
        """
        clipped = self._clip(rect)
        if not self._extents[spec.shard_id].intersects(clipped):
            return False
        return any(
            cell.intersects(clipped)
            for cell in self._cell_rects[spec.shard_id]
        )

    def route_rect(self, rect: Rect) -> List[ShardSpec]:
        """Every shard whose region intersects the (clipped) rect."""
        return [s for s in self.shards if self.covers(s, rect)]

    def route_point(self, x: float, y: float) -> List[ShardSpec]:
        return self.route_rect(Rect(x, y, x, y))

    def index_filter(
        self, shard_id: str
    ) -> Callable[[int, Segment], bool]:
        """The shard's ownership predicate in the shape
        :func:`repro.wal.store.replay_records` expects."""
        spec = self.shard(shard_id)
        return lambda seg_id, segment: self.covers(spec, segment_mbr(segment))

    # ------------------------------------------------------------------
    # Construction and rebalancing
    # ------------------------------------------------------------------
    @classmethod
    def partition(
        cls,
        n_shards: int,
        order: int = DEFAULT_ORDER,
        world_size: float = WORLD_SIZE,
        weights: Optional[Sequence[float]] = None,
        epoch: int = 1,
    ) -> "ShardMap":
        """Split the curve into ``n_shards`` contiguous ranges.

        Without ``weights`` the ranges hold (near-)equal cell counts;
        with per-cell ``weights`` (length ``4^order``, e.g. segment
        counts) the cut points are chosen so each range carries roughly
        an equal share of the total weight.
        """
        total = 4**order
        if not 1 <= n_shards <= total:
            raise ValueError(
                f"need 1..{total} shards for order {order}, got {n_shards}"
            )
        if weights is None:
            bounds = [round(i * total / n_shards) for i in range(n_shards + 1)]
        else:
            if len(weights) != total:
                raise ValueError(
                    f"weights must cover all {total} cells, got {len(weights)}"
                )
            prefix = [0.0]
            for w in weights:
                prefix.append(prefix[-1] + max(float(w), 0.0))
            grand = prefix[-1]
            bounds = [0]
            for i in range(1, n_shards):
                target = grand * i / n_shards
                d = bounds[-1] + 1
                while d < total - (n_shards - i - 1) and prefix[d] < target:
                    d += 1
                bounds.append(d)
            bounds.append(total)
        shards = [
            ShardSpec(f"s{i}", bounds[i], bounds[i + 1])
            for i in range(n_shards)
        ]
        return cls(shards, order=order, world_size=world_size, epoch=epoch)

    def split(
        self, shard_id: str, weights: Optional[Sequence[float]] = None
    ) -> "ShardMap":
        """A new map (epoch + 1) with ``shard_id`` cut into two children.

        ``weights``, when given, are per-cell weights over the *whole*
        curve (only the parent's range is consulted); the cut point
        balances the two children's weight. Children are named
        ``<id>a`` / ``<id>b``.
        """
        spec = self.shard(shard_id)
        if spec.hi - spec.lo < 2:
            raise ValueError(
                f"shard {shard_id!r} owns a single cell and cannot split"
            )
        if weights is None:
            cut = (spec.lo + spec.hi) // 2
        else:
            if len(weights) != 4**self.order:
                raise ValueError(
                    f"weights must cover all {4 ** self.order} cells, "
                    f"got {len(weights)}"
                )
            half = sum(weights[spec.lo : spec.hi]) / 2.0
            running = 0.0
            cut = spec.lo + 1
            for d in range(spec.lo, spec.hi - 1):
                running += max(float(weights[d]), 0.0)
                if running >= half:
                    cut = d + 1
                    break
            else:
                cut = spec.hi - 1
        children = (
            ShardSpec(f"{shard_id}a", spec.lo, cut),
            ShardSpec(f"{shard_id}b", cut, spec.hi),
        )
        for child in children:
            if child.shard_id in self._by_id:
                raise ValueError(
                    f"child id {child.shard_id!r} collides with an "
                    f"existing shard"
                )
        shards = [s for s in self.shards if s.shard_id != shard_id]
        shards.extend(children)
        return ShardMap(
            shards,
            order=self.order,
            world_size=self.world_size,
            epoch=self.epoch + 1,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @staticmethod
    def path(root: str) -> str:
        return os.path.join(os.fspath(root), SHARD_MAP_NAME)

    @staticmethod
    def store_path(root: str, shard_id: str) -> str:
        return os.path.join(os.fspath(root), shard_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SHARD_MAP_VERSION,
            "epoch": self.epoch,
            "order": self.order,
            "world_size": self.world_size,
            "shards": [s.to_dict() for s in self.shards],
        }

    def save(self, root: str) -> str:
        """Write the manifest atomically (temp + replace + dir fsync), so
        a concurrent reader sees one epoch or the other, never a tear."""
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
        path = self.path(root)
        with atomic_publish(path) as fh:
            fh.write(json.dumps(self.to_dict(), indent=1).encode("utf-8"))
        return path

    @classmethod
    def load(cls, root: str) -> "ShardMap":
        """The one reader of the map file: ``FileNotFoundError`` when it
        is missing, ``ValueError`` for anything wrong with it (rule SH01)."""
        with open(cls.path(root), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(
                f"shard map is a JSON {type(raw).__name__}, not an object"
            )
        if raw.get("version") != SHARD_MAP_VERSION:
            raise ValueError(
                f"unsupported shard map version {raw.get('version')!r}"
            )
        try:
            shards = [
                ShardSpec(s["id"], int(s["lo"]), int(s["hi"]))
                for s in raw["shards"]
            ]
            return cls(
                shards,
                order=int(raw["order"]),
                world_size=float(raw["world_size"]),
                epoch=int(raw["epoch"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"shard map is malformed: {exc!r}") from exc


def cell_weights(
    segments: Sequence[Segment], order: int, world_size: float = WORLD_SIZE
) -> List[float]:
    """Per-cell segment counts: how many segment bounding boxes touch
    each Hilbert cell (the load estimate behind weighted partitioning
    and hot-shard splits)."""
    n = 1 << order
    cs = world_size / n
    weights = [0.0] * (n * n)
    for seg in segments:
        x1, x2 = sorted((seg.x1, seg.x2))
        y1, y2 = sorted((seg.y1, seg.y2))
        cx0 = min(max(int(x1 // cs), 0), n - 1)
        cx1 = min(max(int(x2 // cs), 0), n - 1)
        cy0 = min(max(int(y1 // cs), 0), n - 1)
        cy1 = min(max(int(y2 // cs), 0), n - 1)
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                weights[hilbert_index(order, cx, cy)] += 1.0
    return weights
