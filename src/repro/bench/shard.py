"""The routed perf baseline: drive a shard set through the router.

``python -m repro bench --routed --json BENCH_shard.json`` builds one
shard set per headline structure (R*, R+, PMR) in a scratch directory,
serves every shard in-process over loopback TCP, and drives five
workloads through a :class:`~repro.shard.ShardRouter` -- so the record
prices the *whole* sharded read/write path: clipping, scatter-gather,
cross-shard dedup, and the replicated-table fan-out of mutations.

The record (structures -> workloads -> the paper's three counters plus
wall-clock percentiles, :mod:`repro.bench.runner`) carries its own
``kind``, so the regression gate in :mod:`repro.bench.compare` refuses
to compare a routed record against the paper-scale one.

Counters come from the router's merged ``stats`` totals (the sum over
shards), sampled before and after each workload.  Requests run on a
single client thread in seeded order, so every gated counter is
deterministic; only the wall-clock numbers vary by machine, and those
never gate.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.runner import (
    BENCH_SCHEMA_VERSION,
    _wall_summary,
    validate_record,
)
from repro.data.counties import generate_county
from repro.metric_names import BBOX_COMPS, DISK_ACCESSES, PAPER_METRICS, SEGMENT_COMPS
from repro.obs.buildinfo import git_sha

#: The routed record's ``kind`` discriminator.
SHARD_BENCH_KIND = "repro-shard-bench"

#: Structures the routed baseline tracks (the paper's three headliners;
#: each gets its own shard set).
SHARD_BENCH_STRUCTURES: Tuple[str, ...] = ("R*", "R+", "PMR")

#: The five routed workloads: three scatter-gather reads, one batch
#: mix, and one mutation round-trip (inserts then deletes -- the
#: replicated-table write fan-out).
SHARD_BENCH_WORKLOADS: Tuple[str, ...] = (
    "point",
    "window",
    "nearest",
    "batch",
    "mutate",
)

#: Everything that determines the deterministic counters.  ``n_shards``
#: joins the usual workload knobs because the shard layout changes which
#: indexes a query touches.
SHARD_DEFAULT_PARAMS: Dict[str, object] = {
    "county": "cecil",
    "scale": 0.02,
    "n_queries": 25,
    "seed": 1992,
    "page_size": 2048,
    "pool_pages": 16,
    "n_shards": 4,
}


def validate_shard_record(record: object) -> List[str]:
    """Schema check for a routed record (empty list means valid)."""
    return validate_record(
        record,
        kind=SHARD_BENCH_KIND,
        required_structures=SHARD_BENCH_STRUCTURES,
        required_workloads=SHARD_BENCH_WORKLOADS,
        param_keys=tuple(SHARD_DEFAULT_PARAMS),
    )


def _workload_requests(
    map_data, n: int, seed: int
) -> Dict[str, List[Dict[str, Any]]]:
    """The five seeded request streams, as raw wire payloads.

    Point queries hit actual segment endpoints (the paper's model:
    queries are data-correlated); windows and nearest probes are
    uniform over the world square.  The mutate stream is built lazily
    by the runner because deletes need the seg_ids the inserts return.
    """
    rng = random.Random(seed)
    world = map_data.world_size
    segments = map_data.segments

    points = []
    for _ in range(n):
        seg = segments[rng.randrange(len(segments))]
        x, y = (seg.x1, seg.y1) if rng.random() < 0.5 else (seg.x2, seg.y2)
        points.append({"op": "point", "x": x, "y": y})

    windows = []
    span = world * 0.03
    for _ in range(n):
        x = rng.uniform(0.0, world - span)
        y = rng.uniform(0.0, world - span)
        windows.append(
            {"op": "window", "x1": x, "y1": y, "x2": x + span, "y2": y + span}
        )

    nearest = [
        {
            "op": "nearest",
            "x": rng.uniform(0.0, world),
            "y": rng.uniform(0.0, world),
            "k": 2,
        }
        for _ in range(n)
    ]

    # The batches reshuffle the very requests the three read workloads
    # ran first, so they bypass the result cache: the row has to price
    # clip -> sub-batch -> Morton run -> positional merge, not 75 hits.
    batches = []
    members = points + windows + nearest
    rng.shuffle(members)
    for base in range(0, min(n * 3, len(members)), 5):
        chunk = members[base : base + 5]
        if chunk:
            batches.append({"op": "batch", "requests": chunk, "use_cache": False})

    inserts = []
    for _ in range(n):
        x = rng.uniform(0.0, world * 0.9)
        y = rng.uniform(0.0, world * 0.9)
        inserts.append(
            {
                "op": "insert",
                "x1": x,
                "y1": y,
                "x2": x + rng.uniform(1.0, world * 0.05),
                "y2": y + rng.uniform(1.0, world * 0.05),
            }
        )

    return {
        "point": points,
        "window": windows,
        "nearest": nearest,
        "batch": batches,
        "mutate": inserts,
    }


def _respond(router, payload: Dict[str, Any]) -> Any:
    """One request through the router's full respond path; raises on an
    error envelope so a broken set fails the bench loudly."""
    response = router.respond(json.dumps(payload))
    if not response.get("ok"):
        err = response.get("error", {})
        raise RuntimeError(
            f"routed bench request failed: {err.get('code')}: "
            f"{err.get('message')} (op {payload.get('op')!r})"
        )
    return response["result"]


def _totals(router) -> Dict[str, int]:
    """The router's merged counter totals (summed across shards)."""
    stats = _respond(router, {"op": "stats"})
    return dict(stats["totals"])


def _run_routed_workload(
    router, name: str, requests: List[Dict[str, Any]]
) -> Dict[str, object]:
    before = _totals(router)
    wall_ms: List[float] = []
    n = 0
    seg_ids: List[int] = []
    for payload in requests:
        start = time.perf_counter()
        result = _respond(router, payload)
        wall_ms.append((time.perf_counter() - start) * 1e3)
        n += 1
        if name == "mutate":
            seg_ids.append(int(result))
    if name == "mutate":
        # Delete everything the workload inserted, so every structure's
        # bench starts and ends with the same live set and the record
        # prices the full mutation round trip.
        for seg_id in seg_ids:
            start = time.perf_counter()
            _respond(router, {"op": "delete", "seg_id": seg_id})
            wall_ms.append((time.perf_counter() - start) * 1e3)
            n += 1
    after = _totals(router)
    out: Dict[str, object] = {"queries": n}
    for metric in PAPER_METRICS:
        out[metric] = int(after.get(metric, 0)) - int(before.get(metric, 0))
    out["wall"] = _wall_summary(wall_ms)
    return out


def run_shard_bench(
    params: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build, serve, and drive one shard set per structure; return the
    schema-versioned routed record (see :func:`validate_shard_record`)."""
    from repro.shard import LocalShardSet, ShardRouter, init_shard_set

    p = dict(SHARD_DEFAULT_PARAMS)
    if params:
        p.update(params)
    map_data = generate_county(str(p["county"]), scale=float(p["scale"]))
    streams = _workload_requests(map_data, int(p["n_queries"]), int(p["seed"]))

    structures: Dict[str, object] = {}
    for name in SHARD_BENCH_STRUCTURES:
        with tempfile.TemporaryDirectory(prefix="repro-shard-bench-") as root:
            build_start = time.perf_counter()
            smap = init_shard_set(
                root,
                name,
                map_data=map_data,
                n_shards=int(p["n_shards"]),
                page_size=int(p["page_size"]),
                pool_pages=int(p["pool_pages"]),
            )
            build_seconds = time.perf_counter() - build_start
            with LocalShardSet(root):
                router = ShardRouter(root)
                router.start_background()
                try:
                    workload_out: Dict[str, object] = {}
                    totals = {metric: 0 for metric in PAPER_METRICS}
                    for wname in SHARD_BENCH_WORKLOADS:
                        result = _run_routed_workload(
                            router, wname, streams[wname]
                        )
                        workload_out[wname] = result
                        for metric in PAPER_METRICS:
                            totals[metric] += int(result[metric])  # type: ignore[call-overload]
                finally:
                    router.close()
            structures[name] = {
                "build": {
                    "seconds": round(build_seconds, 4),
                    "shards": len(smap.shards),
                    "epoch": smap.epoch,
                    "segments": len(map_data.segments),
                },
                "workloads": workload_out,
                "totals": totals,
            }

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": SHARD_BENCH_KIND,
        "git_sha": git_sha(),
        "params": p,
        "structures": structures,
    }
