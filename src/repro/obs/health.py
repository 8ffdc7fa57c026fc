"""Structural health telemetry, computed without touching a counter.

The paper's counters measure *query* work; these gauges measure the
*shape* the structure has grown into -- the quantity the queries' cost
curves are downstream of. Everything here reads pages through
:meth:`DiskManager.peek` (the sanctioned uncounted bypass, which sees
current state because page payloads are shared with the buffer pool) or
walks the PMR's in-memory directory, so a health refresh moves **no**
``MetricsCounters`` field and perturbs no benchmark: the invariance test
asserts exactly that.

Per structure kind:

* R / R* trees -- node-occupancy histogram (fill quartiles), total
  pairwise overlap area of sibling directory rectangles (the quantity
  the R* split rule minimises), dead-space ratio in the leaves, height,
  pages, entries.
* R+ -- the same, plus the duplication factor (leaf entries per distinct
  segment: the tiling's price); sibling overlap should render as 0.
* PMR -- leaf-block count per decomposition depth, split-threshold
  pressure (fraction of splittable leaves already at/above the
  threshold), mean bucket occupancy, q-edge duplication factor, and the
  locational-code B-tree's height/pages.

:func:`publish_health` pushes the numbers into the process registry as
``repro_index_*`` gauges (labelled by structure) for the Prometheus
export; :func:`compute_health` returns the same numbers as a JSON-ready
dict for the ``{"op": "health"}`` wire response.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.geometry import Rect
from repro.obs.metrics import MetricsRegistry, get_registry

#: Fill-fraction histogram buckets for tree nodes. ``overfull`` only
#: occurs for the R+'s pathological unsplittable leaves.
OCCUPANCY_BUCKETS = ("0-25", "25-50", "50-75", "75-100", "overfull")


def _occupancy_bucket(fill: float) -> str:
    if fill > 1.0:
        return "overfull"
    if fill <= 0.25:
        return "0-25"
    if fill <= 0.50:
        return "25-50"
    if fill <= 0.75:
        return "50-75"
    return "75-100"


def _tree_health(index, node_pages) -> Dict[str, Any]:
    """Health for the R-tree family (Guttman, R*, R+): a full peek-walk
    over the node pages."""
    disk = index.ctx.disk
    capacity = index.capacity
    occupancy = {bucket: 0 for bucket in OCCUPANCY_BUCKETS}
    leaves = internal = leaf_entries = 0
    overlap_area = 0.0
    leaf_mbr_area = 0.0
    leaf_covered_area = 0.0

    for pid in node_pages:
        node = disk.peek(pid)
        occupancy[_occupancy_bucket(len(node.entries) / capacity)] += 1
        if node.is_leaf:
            leaves += 1
            leaf_entries += len(node.entries)
            if node.entries:
                mbr = Rect.union_of(r for r, _ in node.entries)
                leaf_mbr_area += mbr.area()
                leaf_covered_area += sum(r.area() for r, _ in node.entries)
        else:
            internal += 1
            rects = [r for r, _ in node.entries]
            for i, r in enumerate(rects):
                for other in rects[i + 1 :]:
                    overlap_area += r.overlap_area(other)

    entries = index.entry_count()
    segments = index.segment_count()
    # Upper bound on wasted leaf area: entry rectangles may overlap, so
    # the covered sum can exceed the MBR area; clamp to [0, 1].
    dead_space = (
        max(0.0, min(1.0, 1.0 - leaf_covered_area / leaf_mbr_area))
        if leaf_mbr_area > 0
        else 0.0
    )
    return {
        "kind": "tree",
        "height": index.height(),
        "pages": index.page_count(),
        "entries": entries,
        "segments": segments,
        "avg_leaf_occupancy": leaf_entries / (leaves * capacity) if leaves else 0.0,
        "node_occupancy": occupancy,
        "overlap_area": overlap_area,
        "dead_space_ratio": dead_space,
        "duplication_factor": entries / segments if segments else 1.0,
        "leaves": leaves,
        "internal_nodes": internal,
    }


def _pmr_health(index) -> Dict[str, Any]:
    """Health for the PMR quadtree: in-memory directory walk plus the
    B-tree's shape accessors (``block.count`` mirrors the B-tree, so no
    bucket contents are read)."""
    leaves = list(index.root.iter_leaves())
    depth_dist: Dict[int, int] = {}
    for block in leaves:
        depth_dist[block.depth] = depth_dist.get(block.depth, 0) + 1
    splittable = [b for b in leaves if b.depth < index.max_depth]
    pressured = sum(1 for b in splittable if b.count >= index.threshold)
    occupied = [b for b in leaves if b.count > 0]

    entries = index.entry_count()
    segments = index.segment_count()
    return {
        "kind": "pmr",
        "height": index.btree.height,
        "pages": index.page_count(),
        "entries": entries,
        "segments": segments,
        "avg_bucket_count": (
            sum(b.count for b in occupied) / len(occupied) if occupied else 0.0
        ),
        "block_depth": {str(d): depth_dist[d] for d in sorted(depth_dist)},
        "split_pressure": pressured / len(splittable) if splittable else 0.0,
        "duplication_factor": entries / segments if segments else 1.0,
        "leaf_blocks": len(leaves),
        "occupied_blocks": len(occupied),
        "threshold": index.threshold,
        "btree_height": index.btree.height,
    }


def compute_health(index) -> Dict[str, Any]:
    """Structural health of one index, as a JSON-ready dict.

    Chosen by what the index declares: one that owns ``(rect, ref)``
    node pages (``page_inventories()``) gets the tree walk, the PMR
    quadtree the directory walk. Reads only via ``disk.peek`` /
    in-memory state -- never through the buffer pool -- so no counter
    moves.
    """
    pages = index.page_inventories()
    node_pages = pages.get("rtree") or pages.get("rplus")
    if node_pages:
        report = _tree_health(index, node_pages)
    else:
        report = _pmr_health(index)
    report["structure"] = index.name
    return report


#: Health-report keys exported as plain (single-sample) gauges.
_SCALAR_GAUGES = (
    ("height", "repro_index_height"),
    ("pages", "repro_index_pages"),
    ("entries", "repro_index_entries"),
    ("segments", "repro_index_segments"),
    ("avg_leaf_occupancy", "repro_index_avg_leaf_occupancy"),
    ("overlap_area", "repro_index_overlap_area"),
    ("dead_space_ratio", "repro_index_dead_space_ratio"),
    ("duplication_factor", "repro_index_duplication_factor"),
    ("split_pressure", "repro_index_split_pressure"),
    ("avg_bucket_count", "repro_index_avg_bucket_count"),
    ("btree_height", "repro_index_btree_height"),
)


def publish_health(
    index, registry: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """Compute health and publish it as registry gauges; returns the report."""
    registry = registry if registry is not None else get_registry()
    report = compute_health(index)
    structure = report["structure"]
    for key, gauge_name in _SCALAR_GAUGES:
        if key in report:
            registry.gauge(gauge_name, structure=structure).set(report[key])
    for bucket, n in report.get("node_occupancy", {}).items():
        registry.gauge(
            "repro_index_node_occupancy", structure=structure, bucket=bucket
        ).set(n)
    for depth, n in report.get("block_depth", {}).items():
        registry.gauge(
            "repro_index_block_depth", structure=structure, depth=depth
        ).set(n)
    registry.counter(
        "repro_index_health_refreshes_total", structure=structure
    ).inc()
    return report
