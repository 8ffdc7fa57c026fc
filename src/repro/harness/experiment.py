"""Building structures under measurement.

Each structure gets its own complete storage stack (Section 4: each uses
a 16-page, 1 KiB-page LRU buffer pool) and the segment table is loaded
with identical contents, so measured differences come from the index, not
the harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from repro.core import STRUCTURES, SpatialIndex
from repro.data.generator import MapData
from repro.storage import MetricsSnapshot, StorageContext


@dataclass
class BuiltStructure:
    """One structure built over one map, with its build measurements."""

    name: str
    index: SpatialIndex
    ctx: StorageContext
    map_data: MapData
    build_seconds: float
    build_metrics: MetricsSnapshot

    @property
    def size_kbytes(self) -> float:
        return self.index.bytes_used() / 1024.0


def build_structure(
    name: str,
    map_data: MapData,
    page_size: int = 1024,
    pool_pages: int = 16,
    **index_kwargs,
) -> BuiltStructure:
    """Load the segment table, then insert every segment one by one.

    The paper builds dynamically (structure shape depends on insertion
    order); segments are inserted in map order, which for TIGER-like data
    means road by road.
    """
    ctx = StorageContext.create(page_size=page_size, pool_pages=pool_pages)
    try:
        cls = STRUCTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown structure {name!r}; choose from {sorted(STRUCTURES)}"
        ) from None
    index = cls(ctx, **index_kwargs)

    seg_ids = ctx.load_segments(map_data.segments)
    before = ctx.counters.snapshot()
    start = time.perf_counter()
    for seg_id in seg_ids:
        index.insert(seg_id)
    elapsed = time.perf_counter() - start
    ctx.pool.flush()
    build_metrics = ctx.counters.since(before)

    return BuiltStructure(
        name=name,
        index=index,
        ctx=ctx,
        map_data=map_data,
        build_seconds=elapsed,
        build_metrics=build_metrics,
    )
