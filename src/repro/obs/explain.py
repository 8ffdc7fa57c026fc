"""Query EXPLAIN: the paper's three metrics decomposed by level and cause.

The aggregates (``MetricsCounters``, the per-session attribution, the
registry) say *how much* a query cost; an :class:`ExplainProfile` says
*where*: which tree level the disk accesses and bounding-box comparisons
happened at, how many candidates the R+ duplication produced and the
query layer deduplicated, how many directory blocks the PMR decoded and
how many locational-code B-tree leaves its interval scans walked, and
how much of the bill was the segment table verifying geometry.

Mechanics: the engine builds a profile and runs the query with it set
as the storage context's ``profile`` -- under the pool latch, in the
same swap as the scratch counters, restored afterwards
(``QueryEngine._attributed``). There is one traversal loop per query.
Each reads ``ctx.profile`` once on entry (the served path pays one
attribute load, no call) and, when one is set, brackets
each unit of work -- a node visit, a bucket examined, a B-tree scan, a
segment-table fetch -- with :meth:`ExplainProfile.open` and one of the
``close_*`` calls. A *window* is that bracket: ``open`` notes where the
live scratch counters stand, ``close_*`` adds how far they moved since to
one level or cause bucket. The traversal under EXPLAIN is therefore the
traversal that is served, and the per-level figures are its real charges.

Counter movement outside every window lands in no bucket. The engine
compares the buckets' sum with the query's observed deltas and reports
the difference as ``unattributed`` with ``exact: false`` -- which is what
a forgotten bracket in a traversal returns.

The profile object itself never mutates any ``MetricsCounters`` (it only
reads them), keeping lint rule RP03's ownership story intact: counters
are still charged only by storage and core code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.metric_names import (
    BBOX_COMPS,
    BUFFER_HITS,
    COUNTER_FIELDS,
    DISK_ACCESSES,
    DISK_READS,
    DISK_WRITES,
    SEGMENT_COMPS,
)

#: Cause bucket for segment-table verification fetches.
CAUSE_SEGMENT_TABLE = "segment_table"
#: Cause bucket for the PMR's locational-code B-tree traffic.
CAUSE_BTREE = "btree"

#: Count keys (the non-delta tallies a profile accumulates).
COUNT_CANDIDATES = "candidates"
COUNT_DUPLICATES = "duplicates_deduped"
COUNT_RESULTS = "results"
COUNT_SEGMENT_FETCHES = "segment_fetches"
COUNT_BLOCKS_DECODED = "blocks_decoded"
COUNT_BTREE_SCANS = "btree_scans"
COUNT_BTREE_LEAVES = "btree_leaves_scanned"
COUNT_BTREE_INTERNAL = "btree_internal_visited"
COUNT_NN_EXPANSIONS = "nn_expansions"


class Bucket:
    """Counter deltas (plus structural tallies) attributed to one level
    or one cause."""

    __slots__ = (
        "node_visits",
        *COUNTER_FIELDS,
        "entries_examined",
        "entries_matched",
        "entries_pruned",
    )

    def __init__(self) -> None:
        self.node_visits = 0
        self.disk_reads = 0
        self.disk_writes = 0
        self.buffer_hits = 0
        self.segment_comps = 0
        self.bbox_comps = 0
        self.entries_examined = 0
        self.entries_matched = 0
        self.entries_pruned = 0

    def to_dict(self) -> Dict[str, int]:
        out = {name: getattr(self, name) for name in COUNTER_FIELDS}
        out["node_visits"] = self.node_visits
        out["entries_examined"] = self.entries_examined
        out["entries_matched"] = self.entries_matched
        out["entries_pruned"] = self.entries_pruned
        return out


class ExplainProfile:
    """Per-level and per-cause attribution for one explained query.

    One profile serves one query on one thread; nothing here is locked.
    """

    def __init__(self, op: str, structure: str) -> None:
        self.op = op
        self.structure = structure
        self.levels: Dict[int, Bucket] = {}
        self.causes: Dict[str, Bucket] = {}
        self.counts: Dict[str, int] = {}
        #: Node ref -> tree level (root = 0, the default), filled in by
        #: :meth:`close_node` as parents are visited, so the traversal's
        #: own stack or heap carries bare refs and any visiting order
        #: still attributes to the right level.
        self._node_levels: Dict[Any, int] = {}
        self._counters = None
        self._base = (0, 0, 0, 0, 0)

    # -- attribution windows -------------------------------------------
    def level(self, depth: int) -> Bucket:
        bucket = self.levels.get(depth)
        if bucket is None:
            bucket = self.levels[depth] = Bucket()
        return bucket

    def cause(self, name: str) -> Bucket:
        bucket = self.causes.get(name)
        if bucket is None:
            bucket = self.causes[name] = Bucket()
        return bucket

    def open(self, counters) -> None:
        """Open a window on the *live* counters object (under the
        engine's attribution, the per-query scratch set).

        Windows are flat: opening a second one before closing the first
        drops the first's movement, which then shows as unattributed.
        """
        self._counters = counters
        self._base = (
            counters.disk_reads,
            counters.disk_writes,
            counters.buffer_hits,
            counters.segment_comps,
            counters.bbox_comps,
        )

    def _close(self, bucket: Bucket, visits: int) -> Bucket:
        c, base = self._counters, self._base
        bucket.disk_reads += c.disk_reads - base[0]
        bucket.disk_writes += c.disk_writes - base[1]
        bucket.buffer_hits += c.buffer_hits - base[2]
        bucket.segment_comps += c.segment_comps - base[3]
        bucket.bbox_comps += c.bbox_comps - base[4]
        bucket.node_visits += visits
        self._counters = None  # a close with no matching open must fail
        return bucket

    def close_level(self, depth: int, examined: int = 0, matched: int = 0) -> None:
        """Close the window into tree level ``depth`` (one node visit)."""
        bucket = self._close(self.level(depth), 1)
        bucket.entries_examined += examined
        bucket.entries_matched += matched
        bucket.entries_pruned += examined - matched

    def close_node(
        self, ref: Any, examined: int, followed: Sequence[Any], is_leaf: bool
    ) -> None:
        """Close the window into the level of node ``ref``.

        ``followed`` are the entry refs that matched; below an internal
        node they are the pages the traversal visits next, so they are
        recorded one level down.
        """
        depth = self._node_levels.get(ref, 0)
        if not is_leaf:
            for child in followed:
                self._node_levels[child] = depth + 1
        self.close_level(depth, examined, len(followed))

    def close_cause(self, name: str, visits: int = 1) -> None:
        """Close the window into a named cause bucket."""
        self._close(self.cause(name), visits)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def count_verify(self, candidates: int, fetched: int, results: int) -> None:
        """Tally one dedup/fetch/verify pass (zero tallies leave no key).

        Candidates minus unique fetches is the number of extra copies
        the structure's tiling (R+, PMR) produced for the query.
        """
        for name, n in (
            (COUNT_CANDIDATES, candidates),
            (COUNT_DUPLICATES, candidates - fetched),
            (COUNT_SEGMENT_FETCHES, fetched),
            (COUNT_RESULTS, results),
        ):
            if n:
                self.count(name, n)

    # -- totals and reporting ------------------------------------------
    def attributed(self) -> Dict[str, int]:
        """Every counter field summed over all buckets (plus the alias)."""
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        for bucket in list(self.levels.values()) + list(self.causes.values()):
            for name in COUNTER_FIELDS:
                totals[name] += getattr(bucket, name)
        totals[DISK_ACCESSES] = totals[DISK_READS]
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "structure": self.structure,
            "levels": [
                dict(level=depth, **self.levels[depth].to_dict())
                for depth in sorted(self.levels)
            ],
            "causes": {
                name: self.causes[name].to_dict()
                for name in sorted(self.causes)
            },
            "counts": dict(sorted(self.counts.items())),
            "attributed": self.attributed(),
        }


def _observed_line(obs: Dict[str, int]) -> str:
    return (
        f"  observed: {DISK_ACCESSES}={obs[DISK_ACCESSES]} "
        f"{BUFFER_HITS}={obs[BUFFER_HITS]} {BBOX_COMPS}={obs[BBOX_COMPS]} "
        f"{SEGMENT_COMPS}={obs[SEGMENT_COMPS]} {DISK_WRITES}={obs[DISK_WRITES]}"
    )


def format_explain(report: Dict[str, Any]) -> str:
    """Render an explain report as aligned text: an engine's as one
    table, a router's (:func:`merge_explain_reports`) as one table per
    shard under the summed bill."""
    if "shards" in report:
        lines = [
            f"EXPLAIN routed over {len(report['shards'])} shard(s) -- "
            f"{report['result_count']} result(s) before dedup",
            _observed_line(report["observed"]),
            f"  attribution exact: {report['exact']}",
        ]
        for shard_id, shard_report in report["shards"].items():
            lines.append(f"shard {shard_id}: {format_explain(shard_report)}")
        return "\n".join(lines)
    plan = report["plan"]
    lines = [
        f"EXPLAIN {plan['op']} on {plan['structure']} -- "
        f"{report['result_count']} result(s) in {report['elapsed_ms']:.3f} ms",
        f"  args: {report['args']}",
    ]
    header = (
        f"  {'where':<16}{'visits':>8}{'reads':>8}{'hits':>8}"
        f"{'bbox':>8}{'segcmp':>8}{'pruned':>8}"
    )
    lines.append(header)

    def row(label: str, b: Dict[str, int]) -> str:
        return (
            f"  {label:<16}{b['node_visits']:>8}{b[DISK_READS]:>8}"
            f"{b[BUFFER_HITS]:>8}{b[BBOX_COMPS]:>8}{b[SEGMENT_COMPS]:>8}"
            f"{b['entries_pruned']:>8}"
        )

    for level in plan["levels"]:
        lines.append(row(f"level {level['level']}", level))
    for name, bucket in plan["causes"].items():
        lines.append(row(name, bucket))
    att = plan["attributed"]
    lines.append(
        f"  {'total':<16}{'':>8}{att[DISK_READS]:>8}{att[BUFFER_HITS]:>8}"
        f"{att[BBOX_COMPS]:>8}{att[SEGMENT_COMPS]:>8}{'':>8}"
    )
    if plan["counts"]:
        pairs = ", ".join(f"{k}={v}" for k, v in plan["counts"].items())
        lines.append(f"  counts: {pairs}")
    lines.append(_observed_line(report["observed"]))
    lines.append(
        f"  attribution exact: {report['exact']}"
        + ("" if report["exact"] else f" (unattributed: {report['unattributed']})")
    )
    cache = report.get("cache")
    if cache is not None:
        lines.append(
            f"  cache: bypassed (canonical key "
            f"{'already cached' if cache['would_hit'] else 'not cached'})"
        )
    wal = report.get("wal")
    if wal is not None:
        lines.append(
            f"  wal: appends={wal['appends']} fsyncs={wal['fsyncs']} "
            f"(read ops never log)"
        )
    return "\n".join(lines)


def merge_explain_reports(reports: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard explain reports into one routed cost tree.

    ``reports`` maps shard id -> the report that shard's engine produced
    for the same wrapped query. The merged report keeps every shard's
    full plan under ``shards`` (per-level attribution is only meaningful
    per structure instance), sums the ``observed`` counters -- the routed
    query's true total bill -- and ands the per-shard exactness flags.
    ``result_count`` sums the per-shard counts *before* the router's
    seg_id dedup, so it can exceed the deduplicated answer; the router's
    merge reports the deduplicated length alongside.
    """
    if not reports:
        raise ValueError("no shard reports to merge")
    shard_ids = sorted(reports)
    first = reports[shard_ids[0]]
    observed = dict.fromkeys(COUNTER_FIELDS, 0)
    for shard_id in shard_ids:
        obs = reports[shard_id]["observed"]
        for name in COUNTER_FIELDS:
            observed[name] += obs[name]
    observed[DISK_ACCESSES] = observed[DISK_READS]
    return {
        "op": first["op"],
        "args": first["args"],
        "shards": {shard_id: reports[shard_id] for shard_id in shard_ids},
        "observed": observed,
        "exact": all(reports[s]["exact"] for s in shard_ids),
        "result_count": sum(reports[s]["result_count"] for s in shard_ids),
        "elapsed_ms": max(reports[s]["elapsed_ms"] for s in shard_ids),
    }


def merge_attributed(reports: List[Dict[str, Any]]) -> Dict[str, int]:
    """Sum the ``attributed`` totals of many explain reports (tests and
    the exactness acceptance check)."""
    totals = dict.fromkeys(COUNTER_FIELDS, 0)
    for report in reports:
        att = report["plan"]["attributed"]
        for name in COUNTER_FIELDS:
            totals[name] += att[name]
    totals[DISK_ACCESSES] = totals[DISK_READS]
    return totals
