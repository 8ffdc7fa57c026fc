"""Prometheus text exposition: rendering, and a parser to prove it.

:func:`render_prom` turns a :class:`~repro.obs.metrics.MetricsRegistry`
into the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (0.0.4):
``# HELP`` / ``# TYPE`` headers, counters as a single sample, histograms
as cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.

:func:`parse_prom_text` is a deliberately strict reader of that same
format, used by the unit tests and the process tests to assert the
server's export actually parses -- the exporter and its proof live
together so they cannot drift apart.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Tuple

from repro.metric_names import SERVER_DISPATCH_TOTAL, SERVER_LOOP_HOLD_SECONDS

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^ ]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: One-line help strings for the metric families this project exports.
HELP_TEXT = {
    "repro_queries_total": "Requests dispatched through QueryEngine.execute, by op and status.",
    "repro_cache_events_total": "Result-cache lookups by outcome (hit/miss).",
    "repro_slow_queries_total": "Requests that finished at or above the slow threshold (--slow-ms).",
    "repro_traces_total": "Traces captured by the tracer.",
    "repro_trace_dropped_total": "Finished traces evicted from the tracer's ring buffer.",
    "repro_trace_tail_discarded_total": "Trace skeletons discarded by the tail-sampling policy (fast, clean, unsampled).",
    "repro_trace_buffered": "Finished traces currently held in the tracer's ring buffer.",
    "repro_op_latency_seconds": "End-to-end latency of QueryEngine.execute, by op.",
    "repro_latch_acquisitions_total": "Outermost acquisitions of the buffer-pool latch.",
    "repro_latch_contended_total": "Latch acquisitions that had to wait for another holder.",
    "repro_latch_wait_seconds_total": "Seconds the contended latch acquisitions spent waiting.",
    "repro_wal_appends_total": "Records appended to the write-ahead log.",
    "repro_wal_fsyncs_total": "fsyncs of the write-ahead log (group commit makes it fewer than appends).",
    "repro_build_info": "Constant 1; build metadata in the labels (version, git_sha, page_size, grid_bits).",
    "repro_index_height": "Height of the served index (levels, root included).",
    "repro_index_pages": "Pages occupied by the served index.",
    "repro_index_entries": "Index entries (leaf tuples / q-edges); exceeds segments under duplication.",
    "repro_index_segments": "Distinct segments stored in the served index.",
    "repro_index_avg_leaf_occupancy": "Mean leaf fill fraction (entries / capacity) over all leaves.",
    "repro_index_node_occupancy": "Node count per fill-fraction bucket (trees).",
    "repro_index_overlap_area": "Total pairwise overlap area of sibling directory rectangles.",
    "repro_index_dead_space_ratio": "Fraction of leaf MBR area not covered by entry MBRs.",
    "repro_index_duplication_factor": "Entries per distinct segment (R+ tiling / PMR q-edge duplication).",
    "repro_index_block_depth": "Leaf-block count per decomposition depth (PMR).",
    "repro_index_split_pressure": "Fraction of splittable leaf blocks at or above the split threshold (PMR).",
    "repro_index_avg_bucket_count": "Mean q-edges per non-empty leaf bucket (PMR).",
    "repro_index_btree_height": "Height of the locational-code B-tree (PMR).",
    "repro_index_health_refreshes_total": "Structural health recomputations, by kind.",
    "repro_router_requests_total": "Requests served by the shard router, by op and status.",
    "repro_router_shards": "Shard workers the router currently fans out to.",
    "repro_router_epoch": "Shard-map epoch the router last loaded.",
    SERVER_DISPATCH_TOTAL: "Async-server requests by the thread that ran them (path: loop/executor).",
    SERVER_LOOP_HOLD_SECONDS: "How long each loop-run request held the async server's event loop.",
}


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(str(v))}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prom(registry) -> str:
    """Render every metric in ``registry`` as Prometheus text."""
    from repro.obs.metrics import BUCKET_BOUNDS

    lines: List[str] = []
    seen_headers = set()

    def header(name: str, kind: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        help_text = HELP_TEXT.get(name, f"{name} (no help registered)")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for counter in sorted(registry.counters(), key=lambda c: (c.name, c.labels)):
        header(counter.name, "counter")
        lines.append(
            f"{counter.name}{_format_labels(counter.labels)} {counter.value}"
        )
    for gauge in sorted(registry.gauges(), key=lambda g: (g.name, g.labels)):
        header(gauge.name, "gauge")
        lines.append(
            f"{gauge.name}{_format_labels(gauge.labels)} "
            f"{_format_value(gauge.value)}"
        )
    for hist in sorted(registry.histograms(), key=lambda h: (h.name, h.labels)):
        header(hist.name, "histogram")
        counts, total, sum_seconds = hist.raw()
        cumulative = 0
        for bound, count in zip(BUCKET_BOUNDS, counts):
            cumulative += count
            le_label = 'le="%s"' % _format_value(bound)
            lines.append(
                f"{hist.name}_bucket"
                f"{_format_labels(hist.labels, le_label)} {cumulative}"
            )
        cumulative += counts[-1]
        inf_label = 'le="+Inf"'
        lines.append(
            f"{hist.name}_bucket"
            f"{_format_labels(hist.labels, inf_label)} {cumulative}"
        )
        lines.append(
            f"{hist.name}_sum{_format_labels(hist.labels)} "
            f"{_format_value(sum_seconds)}"
        )
        lines.append(
            f"{hist.name}_count{_format_labels(hist.labels)} {total}"
        )
    return "\n".join(lines) + "\n" if lines else ""


def merge_prom_texts(texts: Dict[str, str]) -> str:
    """Merge several Prometheus expositions into one, labelled by shard.

    ``texts`` maps a shard id to that worker's text exposition (the
    router scrapes each shard's ``metrics`` op). Every sample is
    re-emitted with a ``shard="<id>"`` label added, families are
    deduplicated to one ``# HELP`` / ``# TYPE`` header each, and the
    result is itself valid exposition (:func:`parse_prom_text` accepts
    it -- each input is parsed, so a malformed shard export fails here,
    not at the scraper). Histograms stay correct because the shard label
    keeps each worker's bucket series distinct.
    """
    parsed = {shard: parse_prom_text(text) for shard, text in texts.items()}
    families: Dict[str, Dict] = {}
    for shard in sorted(parsed):
        for name, family in parsed[shard].items():
            merged = families.setdefault(
                name,
                {"type": family["type"], "help": family["help"], "rows": []},
            )
            for sample_name, labels, value in family["samples"]:
                if labels.get("shard") not in (None, shard):
                    raise ValueError(
                        f"{name}: sample already labelled "
                        f"shard={labels['shard']!r}, cannot relabel for "
                        f"{shard!r}"
                    )
                labelled = dict(labels)
                labelled["shard"] = shard
                merged["rows"].append((sample_name, labelled, value))
    lines: List[str] = []
    for name in sorted(families):
        family = families[name]
        if family["help"] is not None:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample_name, labels, value in family["rows"]:
            # ``le`` must stay last-ish is not required by the format;
            # sorted label order keeps output deterministic.
            label_pairs = tuple(sorted(labels.items()))
            lines.append(
                f"{sample_name}{_format_labels(label_pairs)} "
                f"{_format_value(value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def parse_prom_text(text: str) -> Dict[str, Dict]:
    """Parse Prometheus text exposition, strictly.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels_dict, value), ...]}}``. Raises ``ValueError``
    on anything malformed: an unknown sample family, a ``# TYPE`` after
    samples of that family, a histogram whose ``_bucket`` series is not
    cumulative or whose ``+Inf`` bucket disagrees with ``_count``.
    """
    families: Dict[str, Dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            _, kind, rest = line.split(" ", 2)
            name, _, payload = rest.partition(" ")
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad metric name {name!r}")
            family = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if kind == "TYPE":
                if family["samples"]:
                    raise ValueError(
                        f"line {lineno}: TYPE for {name} after its samples"
                    )
                family["type"] = payload
            else:
                family["help"] = payload
            continue
        if line.startswith("#"):
            continue  # comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        sample_name = m.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", sample_name)
        family = families.get(base) or families.get(sample_name)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no # TYPE header"
            )
        labels: Dict[str, str] = {}
        if m.group("labels"):
            consumed = 0
            for lm in _LABEL_RE.finditer(m.group("labels")):
                labels[lm.group(1)] = lm.group(2)
                consumed += 1
            if consumed == 0:
                raise ValueError(f"line {lineno}: bad labels in {line!r}")
        raw = m.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        family["samples"].append((sample_name, labels, value))
    _validate_histograms(families)
    return families


def _validate_histograms(families: Dict[str, Dict]) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for sample_name, labels, value in family["samples"]:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if sample_name == f"{name}_bucket":
                le = labels.get("le")
                if le is None:
                    raise ValueError(f"{name}: bucket sample without le label")
                bound = float("inf") if le == "+Inf" else float(le)
                series.setdefault(key, []).append((bound, value))
            elif sample_name == f"{name}_count":
                counts[key] = value
        for key, buckets in series.items():
            ordered = sorted(buckets)
            values = [v for _, v in ordered]
            if values != sorted(values):
                raise ValueError(f"{name}: bucket counts are not cumulative")
            if ordered[-1][0] != float("inf"):
                raise ValueError(f"{name}: histogram lacks a +Inf bucket")
            if key in counts and counts[key] != ordered[-1][1]:
                raise ValueError(
                    f"{name}: +Inf bucket {ordered[-1][1]} != _count {counts[key]}"
                )
