"""Plain-text renderings of the reproduced tables and figures, in the
paper's row/column layout, and ``render``: the one markdown writer, from
a record of ``repro.harness.report.measure``."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.harness.normalized import NormalizedRange, by_structure, normalized_ranges
from repro.harness.workloads import WORKLOAD_NAMES
from repro.metric_names import BBOX_COMPS, DISK_ACCESSES, DISK_READS, SEGMENT_COMPS

_METRIC_LABELS = {
    DISK_ACCESSES: "disk accesses",
    SEGMENT_COMPS: "segment comps",
    BBOX_COMPS: "bbox / node comps",
}


def format_table1(
    rows: List[Dict[str, Any]],
    page_size: int = 1024,
    structures: Sequence[str] = ("R*", "R+", "PMR"),
) -> str:
    """Table 1: size (Kbytes) | disk accesses | cpu seconds, per county."""
    header1 = (
        f"{'':14s}{'':>7s} |{'size (Kbytes)':^24s}|{'disk accesses':^24s}|"
        f"{'cpu seconds':^24s}"
    )
    header2 = (
        f"{'map name':14s}{'segs':>7s} |"
        + "".join(f"{s:>8s}" for s in structures)
        + "|"
        + "".join(f"{s:>8s}" for s in structures)
        + "|"
        + "".join(f"{s:>8s}" for s in structures)
    )
    lines = [header1, header2, "-" * len(header2)]
    for row in rows:
        line = (
            f"{row['county']:14s}{row['segments']:>7d} |"
            + "".join(
                f"{row['pages'][s] * page_size / 1024:>8.0f}" for s in structures
            )
            + "|"
            + "".join(f"{row[DISK_READS][s]:>8d}" for s in structures)
            + "|"
            + "".join(f"{row['seconds'][s]:>8.2f}" for s in structures)
        )
        lines.append(line)
    return "\n".join(lines)


def format_table2(
    stats: Dict[str, Dict[str, Dict[str, Any]]],
    structures: Sequence[str] = ("PMR", "R+", "R*"),
    county: str = "charles",
) -> str:
    """Table 2: per-workload metric rows for one county
    (``stats`` is ``{structure: {workload: row}}``)."""
    width = 18 + 12 * len(structures)
    lines = [
        f"{county} county".center(width),
        f"{'query':<18s}{'metric':<20s}"
        + "".join(f"{s:>12s}" for s in structures),
    ]
    lines.append("-" * (38 + 12 * len(structures)))
    for workload in WORKLOAD_NAMES:
        for metric, label in _METRIC_LABELS.items():
            lines.append(
                f"{workload:<18s}{label:<20s}"
                + "".join(
                    f"{stats[s][workload][metric]:>12.2f}"
                    for s in structures
                )
            )
        lines.append("")
    return "\n".join(lines)


def format_normalized(
    ranges: List[NormalizedRange], title: str, baseline: str = "PMR"
) -> str:
    """Figures 7-9 as text: normalized min-avg-max per structure/workload."""
    lines = [
        title,
        f"(normalized against {baseline}; each cell is min / avg / max over the maps)",
        f"{'workload':<18s}{'structure':<10s}{'min':>8s}{'avg':>8s}{'max':>8s}",
        "-" * 52,
    ]
    for workload in WORKLOAD_NAMES:
        for r in ranges:
            if r.workload == workload:
                lines.append(
                    f"{workload:<18s}{r.structure:<10s}"
                    f"{r.minimum:>8.2f}{r.average:>8.2f}{r.maximum:>8.2f}"
                )
    return "\n".join(lines)


def format_normalized_bars(
    ranges: List[NormalizedRange], title: str, baseline: str = "PMR", width: int = 40
) -> str:
    """Figures 7-9 as horizontal bar charts (the paper plots ranges;
    each bar spans min..max with the average marked)."""
    finite = [r for r in ranges if r.maximum > 0]
    if not finite:
        return f"{title}\n(no data)"
    scale_max = max(r.maximum for r in finite)
    unit = width / scale_max
    lines = [
        title,
        f"(bars span min..max over the maps, '*' marks the average; "
        f"{baseline} = 1.0)",
    ]
    baseline_col = int(1.0 * unit)
    for workload in WORKLOAD_NAMES:
        for r in ranges:
            if r.workload != workload:
                continue
            lo = int(r.minimum * unit)
            hi = max(int(r.maximum * unit), lo + 1)
            avg = min(max(int(r.average * unit), lo), hi - 1)
            row = [" "] * (width + 2)
            for i in range(lo, hi):
                row[i] = "="
            row[avg] = "*"
            if 0 <= baseline_col < len(row) and row[baseline_col] == " ":
                row[baseline_col] = "|"
            lines.append(
                f"{workload:<18s}{r.structure:<5s}{''.join(row)} "
                f"{r.average:5.2f}"
            )
    return "\n".join(lines)


def figure6_grid(cells: List[Dict[str, Any]]) -> Dict[str, Dict[Tuple[int, int], int]]:
    """``{structure: {(page_size, pool_pages): build disk accesses}}``."""
    grid: Dict[str, Dict[Tuple[int, int], int]] = {}
    for c in cells:
        grid.setdefault(c["structure"], {})[(c["page_size"], c["pool_pages"])] = c[
            DISK_READS
        ]
    return grid


def format_figure6(cells: List[Dict[str, Any]]) -> str:
    """Figure 6 as a grid: build disk accesses per (page size, pool size)."""
    grid = figure6_grid(cells)
    page_sizes = sorted({c["page_size"] for c in cells})
    pool_sizes = sorted({c["pool_pages"] for c in cells})
    lines = ["Build disk accesses by page size and buffer size"]
    for structure, values in grid.items():
        lines.append(f"\n{structure}:")
        lines.append(
            f"{'page size':>10s} |"
            + "".join(f"{p:>8d}p" for p in pool_sizes)
            + "   (buffer pool pages)"
        )
        for page_size in page_sizes:
            lines.append(
                f"{str(page_size) + 'B':>10s} |"
                + "".join(f"{values[(page_size, p)]:>9d}" for p in pool_sizes)
            )
    return "\n".join(lines)


def equalizing_threshold(occupancy: Dict[str, Any]) -> int:
    """The swept PMR threshold whose bucket occupancy comes closest to
    the R-tree leaf-page occupancies (the paper estimates ~64)."""
    target = (occupancy["R*"] + occupancy["R+"]) / 2
    return min(
        occupancy["PMR"], key=lambda row: abs(row["occupancy"] - target)
    )["threshold"]


def format_occupancy(occupancy: Dict[str, Any], page_size: int = 1024) -> str:
    lines = [
        f"Average page/bucket occupancy ({occupancy['county']})",
        f"  R*-tree leaf pages : {occupancy['R*']:.1f} segments/page",
        f"  R+-tree leaf pages : {occupancy['R+']:.1f} segments/page",
        "  PMR bucket occupancy by splitting threshold:",
    ]
    for row in occupancy["PMR"]:
        threshold, occ = row["threshold"], row["occupancy"]
        lines.append(
            f"    threshold {threshold:>3d}: {occ:>6.1f} segs/bucket "
            f"(~{occ / threshold:.2f}x), index "
            f"{row['pages'] * page_size / 1024:.0f} KB"
        )
    lines.append(f"  occupancy-equalizing threshold: {equalizing_threshold(occupancy)}")
    return "\n".join(lines)


def render(record: Dict[str, Any]) -> str:
    """The reproduction report, as markdown, from a measured record."""
    cfg = record["config"]
    counties = record["counties"]
    page_size = cfg["page_size"]
    charles = "charles" if "charles" in counties else next(iter(counties))
    sections = [
        "# Reproduction report",
        "",
        f"Hoel & Samet, SIGMOD 1992 — regenerated at scale {cfg['scale']} with "
        f"{cfg['queries']} queries per workload.",
        "",
        "## Table 1 — building statistics",
        "```",
        format_table1([c["table1"] for c in counties.values()], page_size),
        "```",
        f"## Table 2 — query statistics ({charles})",
        "```",
        format_table2(by_structure(counties[charles]["workloads"]), county=charles),
        "```",
    ]
    figure_specs = [
        (
            "Figure 7 — relative bounding box computations",
            normalized_ranges(record, BBOX_COMPS, structures=("R+",), baseline="R*"),
            "R*",
        ),
        (
            "Figure 8 — relative disk accesses",
            normalized_ranges(record, DISK_ACCESSES),
            "PMR",
        ),
        (
            "Figure 9 — relative segment comparisons",
            normalized_ranges(record, SEGMENT_COMPS),
            "PMR",
        ),
    ]
    for title, ranges, baseline in figure_specs:
        sections += [
            f"## {title}",
            "```",
            format_normalized(ranges, title, baseline=baseline),
            "",
            format_normalized_bars(ranges, title, baseline=baseline),
            "```",
        ]
    sections += [
        "## Figure 6 — page/buffer sweep",
        "```",
        format_figure6(record["figure6"]["cells"]),
        "```",
        "## Occupancy (Concluding Remarks)",
        "```",
        "\n\n".join(
            format_occupancy(c["occupancy"], page_size) for c in counties.values()
        ),
        "```",
        "",
        f"_Generated in {record['elapsed_seconds']:.1f} s._",
        "",
    ]
    return "\n".join(sections)
