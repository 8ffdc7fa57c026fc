"""``paper_core``: the paper's Table 1 and Table 2, in process.

No service code runs: ``build_structure`` for R*, R+ and PMR, then for
each structure, from a cold pool, the paper's query types from
``QueryWorkloads.generate`` through the default traversal backend. The
same pass repeats until the time is up; the paper's counters must repeat
exactly from pass to pass, and a pass is to the end-to-end timings what a
slice is to a service workload's (``load.steady``), uncorrected. Only
``core``, ``btree``, ``geometry`` and ``storage`` do work here, which is
what makes it the control for every change to ``service``, ``aio``,
``shard`` or ``wal``.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.backends import resolve_backend
from repro.core.queries.spec import QuerySpec
from repro.data import generate_county
from repro.errors import CodecError
from repro.geometry import Point, Segment
from repro.harness.experiment import BuiltStructure, build_structure
from repro.harness.workloads import QueryWorkloads
from repro.service import open_index, save_index

from .config import QUERY_TYPES, SLUG, STRUCTURES, Config
from .layers import Spans, trace_overhead_pct
from .load import Slice, slice_summary
from .oracle import Oracle
from .outcome import Outcome, ratio
from .procs import Scratch, peak_rss_mb
from .streams import FIXED_SEED

Cell = Tuple[str, str]  # (structure, query type)
COUNTERS = ("disk_reads", "disk_writes", "buffer_hits", "segment_comps", "bbox_comps")


def query_specs(map_data, pmr, cfg: Config, seed: int) -> Dict[str, List[QuerySpec]]:
    """The five query types of one pass, in the order they run.

    The polygon points alone do not follow ``--seed``: the cost of an
    enclosing-polygon query is heavy-tailed (a few faces have thousands
    of edges), so a fresh sample of 100 moved ops/s by +-20 % and disk
    accesses per op by +-8 % from seed to seed, burying every other
    signal. They are drawn once, like the map, from a fixed seed."""
    def generate(n: int, with_seed: int) -> QueryWorkloads:
        return QueryWorkloads.generate(
            map_data, pmr, n, seed=with_seed,
            # The paper's 0.01 % window at full scale, kept as large in
            # road-network terms when the quick configuration shrinks
            # the map.
            window_area_fraction=0.0001 / cfg.scale)

    seeded = generate(cfg.queries_per_type, seed)
    fixed = generate(cfg.polygon_queries, FIXED_SEED)
    return {
        "point": [QuerySpec.point(p) for p, _ in seeded.endpoint_queries],
        "point2": [QuerySpec.other_endpoint(p, sid) for p, sid in seeded.endpoint_queries],
        "nearest": [QuerySpec.nearest(p, 1) for p in seeded.two_stage],
        "window": [QuerySpec.window(w) for w in seeded.windows],
        "polygon": [QuerySpec.polygon(p) for p in fixed.two_stage],
    }


class Pass:
    """One run of every query against every structure."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.cell_seconds: Dict[Cell, float] = {}
        self.counters: Dict[Cell, Dict[str, int]] = {}
        self.results: Dict[Cell, List[Any]] = {}

    @property
    def seconds(self) -> float:
        return sum(self.cell_seconds.values())

    def total(self, counter: str) -> int:
        return sum(cell[counter] for cell in self.counters.values())


def run_pass(built: Dict[str, BuiltStructure], specs: Dict[str, List[QuerySpec]],
             backend, keep_results: bool, spans: Optional[Spans] = None) -> Pass:
    done = Pass()
    for name, structure in built.items():
        structure.ctx.pool.clear()  # each structure starts cold, as in the paper
        for qtype, batch in specs.items():
            cell = (name, qtype)
            before = structure.ctx.counters.snapshot()
            latencies: List[float] = []
            results: List[Any] = []
            index = structure.index
            span_name = f"core.run.{SLUG[name]}.{qtype}"
            for rid, spec in enumerate(batch):
                start = time.perf_counter()
                result = backend.run(index, spec)
                end = time.perf_counter()
                latencies.append(end - start)
                if spans is not None:
                    spans.add(span_name, rid, start, end, None)
                if keep_results:
                    results.append(result)
            delta = structure.ctx.counters.since(before)
            done.cell_seconds[cell] = sum(latencies)
            done.counters[cell] = {c: getattr(delta, c) for c in COUNTERS}
            done.latencies.extend(latencies)
            done.results[cell] = results
    return done


def check_answers(first: Pass, specs: Dict[str, List[QuerySpec]], map_data, cfg: Config,
                  seed: int, out: Outcome) -> None:
    """A seeded sample of the first pass's answers against the linear
    scan; polygons, which the scan cannot answer, must at least be the
    same face from all three structures."""
    oracle = Oracle(map_data.segments)
    rng = random.Random(f"paper_core-oracle:{seed}")
    per_cell = -(-cfg.oracle_checks // (len(STRUCTURES) * 4))
    for (name, qtype), results in first.results.items():
        if qtype == "polygon":
            continue
        batch = specs[qtype]
        for i in rng.sample(range(len(batch)), min(per_cell, len(batch))):
            spec, got = batch[i], results[i]
            out.attempted += 1
            if qtype == "point":
                problem = oracle.check_ids(got, oracle.point(spec.x, spec.y))
            elif qtype == "window":
                problem = oracle.check_ids(got, oracle.window(spec.x, spec.y, spec.x2, spec.y2))
            elif qtype == "nearest":
                problem = oracle.check_nearest(spec.x, spec.y, spec.k, [list(pair) for pair in got])
            else:  # point2: the segments meeting seg_id's other endpoint
                segment: Segment = oracle.live[spec.seg_id]
                other = segment.other_endpoint(Point(spec.x, spec.y))
                want = [sid for sid in oracle.point(other.x, other.y) if sid != spec.seg_id]
                problem = None if tuple(got[0]) == tuple(other) else f"other endpoint {got[0]!r}"
                problem = problem or oracle.check_ids(list(got[1]), want)
            if problem is not None:
                out.fail(f"{name} {qtype} #{i}: {problem}")
    faces = [
        [(sorted(set(r.seg_ids)), r.closed) for r in first.results[(name, "polygon")]]
        for name in STRUCTURES
    ]
    for i, answers in enumerate(zip(*faces)):
        out.attempted += 1
        if any(answer != answers[0] for answer in answers[1:]):
            out.fail(f"polygon #{i}: the three structures enclose different faces")


def run(cfg: Config, seed: int, seconds: float, trace: bool, spans: Spans) -> Outcome:
    out = Outcome()
    started = time.perf_counter()
    map_data = generate_county(cfg.county, scale=cfg.scale)
    built = {
        name: build_structure(name, map_data, page_size=cfg.page_size, pool_pages=cfg.pool_pages)
        for name in STRUCTURES
    }
    specs = query_specs(map_data, built["PMR"].index, cfg, seed)
    e2e = out.end_to_end
    e2e["setup_s"] = time.perf_counter() - started
    out.samples["setup_s"] = 1
    build_s = {name: b.build_seconds for name, b in built.items()}
    out.per_layer["build_s"] = sum(build_s.values())

    backend = resolve_backend(None)
    passes: List[Pass] = []
    timed_from = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - timed_from < seconds:
        passes.append(run_pass(built, specs, backend, keep_results=not passes))
    first = passes[0]
    ops = len(first.latencies)
    out.attempted += ops * len(passes)
    for later in passes[1:]:
        if later.counters != first.counters:
            out.fail("the paper's counters differ between two passes of the same queries")
    check_answers(first, specs, map_data, cfg, seed, out)

    # A pass is to this workload what a slice is to the others, but for
    # the correction (factor 1): the reference's client would share this
    # process with three indexes, whose size would then move its rate.
    summary = slice_summary([Slice(sorted(p.latencies), p.seconds, 1.0) for p in passes])
    for metric in ("ops_per_s", "p50_ms", "p99_ms"):
        e2e[metric] = summary[metric]
        out.samples[metric] = summary["samples"]
    e2e["disk_accesses_per_op"] = ratio(first.total("disk_reads"), ops)
    e2e["stored_bytes_per_segment"] = ratio(
        sum(b.index.bytes_used() for b in built.values()), len(map_data.segments))
    out.samples["passes"] = len(passes)
    out.samples["disk_accesses_per_op"] = ops

    if trace:
        layer_metrics(built, build_s, specs, passes, backend, spans, out)
    e2e["peak_rss_mb"] = peak_rss_mb(os.getpid())
    return out


def layer_metrics(built: Dict[str, BuiltStructure], build_s: Dict[str, float],
                  specs: Dict[str, List[QuerySpec]], passes: List[Pass], backend,
                  spans: Spans, out: Outcome) -> None:
    layer = out.per_layer
    first = passes[0]
    segments = len(next(iter(built.values())).map_data.segments)
    for name in STRUCTURES:
        slug = SLUG[name]
        layer[f"core.build_s.{slug}"] = build_s[name]
        layer[f"storage.index_pages.{slug}"] = built[name].index.page_count()
        cells = [first.counters[(name, q)] for q in QUERY_TYPES]
        queries = sum(len(specs[q]) for q in QUERY_TYPES)
        layer[f"core.segment_comps_per_op.{slug}"] = ratio(
            sum(c["segment_comps"] for c in cells), queries)
        layer[f"core.bbox_comps_per_op.{slug}"] = ratio(
            sum(c["bbox_comps"] for c in cells), queries)
        for qtype in QUERY_TYPES:
            cell = (name, qtype)
            layer[f"core.query_us.{slug}.{qtype}"] = statistics.median(
                p.cell_seconds[cell] for p in passes) / len(specs[qtype]) * 1e6
            layer[f"core.disk_accesses_per_query.{slug}.{qtype}"] = ratio(
                first.counters[cell]["disk_reads"], len(specs[qtype]))
    layer["core.build_ratio.rstar_over_rplus"] = ratio(build_s["R*"], build_s["R+"])
    layer["core.build_ratio.pmr_over_rplus"] = ratio(build_s["PMR"], build_s["R+"])
    hits, reads = first.total("buffer_hits"), first.total("disk_reads")
    layer["storage.pool_hit_rate"] = ratio(hits, hits + reads)
    layer["storage.disk_writes_per_op"] = ratio(first.total("disk_writes"), len(first.latencies))

    # One more pass with a span per query for trace.json; what recording
    # costs is measured on the cheapest cell, where it is largest.
    run_pass(built, specs, backend, keep_results=False, spans=spans)
    pmr = built["PMR"].index
    layer["obs.bench_trace_overhead_pct"] = trace_overhead_pct(
        lambda call: [call(backend.run, pmr, spec) for spec in specs["point"]])

    with Scratch() as scratch:
        snapshot_metrics(built, segments, scratch, out)
    vector_metrics(built, specs, passes, backend, out)


def snapshot_metrics(built: Dict[str, BuiltStructure], segments: int, scratch: Scratch,
                     out: Outcome) -> None:
    """Save and reopen R* (what serve_read starts from). R+ is tried too:
    at 1 KiB pages it cannot be saved, which is recorded, not worked
    around."""
    layer = out.per_layer
    path = scratch.path("rstar.snap")
    start = time.perf_counter()
    save_index(built["R*"].index, path)
    layer["storage.snapshot_save_s"] = time.perf_counter() - start
    start = time.perf_counter()
    open_index(path)
    layer["storage.snapshot_open_s"] = time.perf_counter() - start
    layer["storage.snapshot_bytes_per_segment"] = ratio(os.path.getsize(path), segments)
    try:
        save_index(built["R+"].index, scratch.path("rplus.snap"))
        out.notes.append("R+ snapshot: saved")
    except CodecError as exc:
        out.notes.append(f"R+ snapshot: CodecError: {exc}")


def vector_metrics(built: Dict[str, BuiltStructure], specs: Dict[str, List[QuerySpec]],
                   passes: List[Pass], scalar, out: Outcome) -> None:
    """The record a change of default backend must beat: the fused
    vector batch against the scalar loop on the window queries, and what
    the first vector query after a mutation costs."""
    layer = out.per_layer
    vector = resolve_backend("vector")
    if vector.name != "vector":
        out.notes.append("core.vector_batch_speedup.* core.vector_post_mutation_ms "
                         "skipped: numpy missing")
        return
    windows = specs["window"]
    first = passes[0]
    for name, structure in built.items():
        index = structure.index
        vector.run_batch(index, windows)  # builds the mirror a live server would hold
        structure.ctx.pool.clear()
        start = time.perf_counter()
        got = vector.run_batch(index, windows)
        batch_s = time.perf_counter() - start
        scalar_s = statistics.median(p.cell_seconds[(name, "window")] for p in passes)
        layer[f"core.vector_batch_speedup.{SLUG[name]}"] = ratio(scalar_s, batch_s)
        out.attempted += len(windows)
        want = first.results[(name, "window")]
        if [sorted(g) for g in got] != [sorted(w) for w in want]:
            out.fail(f"{name}: vector run_batch and scalar run disagree on the windows")
    # One insert, then the first vector query: the mirror is rebuilt.
    pmr = built["PMR"]
    segment = pmr.map_data.segments[0]
    seg_id = pmr.ctx.segments.append(
        Segment(segment.x1, segment.y1, segment.x1 + 1.0, segment.y1 + 1.0))
    pmr.index.insert(seg_id)
    vector.invalidate()
    start = time.perf_counter()
    vector.run(pmr.index, windows[0])
    layer["core.vector_post_mutation_ms"] = (time.perf_counter() - start) * 1e3
