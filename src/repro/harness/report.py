"""One-call full reproduction report.

``full_report`` regenerates every table and figure at a chosen scale and
renders them into a single markdown document -- the programmatic
equivalent of running the whole benchmark suite, for notebooks and the
``python -m repro report`` command.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.harness.build_stats import table1
from repro.harness.normalized import collect_all_counties, normalized_ranges
from repro.harness.occupancy import occupancy_report
from repro.harness.sweeps import figure6_sweep
from repro.harness.tables import (
    format_figure6,
    format_normalized,
    format_normalized_bars,
    format_occupancy,
    format_table1,
    format_table2,
)
from repro.metric_names import BBOX_COMPS, DISK_ACCESSES, SEGMENT_COMPS


def full_report(
    scale: float = 0.05,
    n_queries: int = 100,
    counties: Optional[Sequence[str]] = None,
    out_path: Optional[Union[str, Path]] = None,
) -> str:
    """Build every structure over every county and render all results.

    Returns the markdown text; also writes it to ``out_path`` if given.
    At the default scale this takes on the order of a minute; at
    ``scale=1.0`` expect tens of minutes (see EXPERIMENTS.md).
    """
    started = time.perf_counter()
    sections = [
        "# Reproduction report",
        "",
        f"Hoel & Samet, SIGMOD 1992 — regenerated at scale {scale} with "
        f"{n_queries} queries per workload.",
        "",
        "## Table 1 — building statistics",
        "```",
        format_table1(table1(scale=scale, counties=counties)),
        "```",
    ]

    per_county = collect_all_counties(
        scale=scale, n_queries=n_queries, counties=counties
    )

    charles_key = "charles" if "charles" in per_county else next(iter(per_county))
    sections += [
        f"## Table 2 — query statistics ({charles_key})",
        "```",
        format_table2(per_county[charles_key], county=charles_key),
        "```",
    ]

    figure_specs = [
        (
            "Figure 7 — relative bounding box computations",
            normalized_ranges(
                per_county, BBOX_COMPS, structures=("R+",), baseline="R*"
            ),
            "R*",
        ),
        (
            "Figure 8 — relative disk accesses",
            normalized_ranges(per_county, DISK_ACCESSES),
            "PMR",
        ),
        (
            "Figure 9 — relative segment comparisons",
            normalized_ranges(per_county, SEGMENT_COMPS),
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

    sweep_county = charles_key if counties else "cecil"
    sections += [
        "## Figure 6 — page/buffer sweep",
        "```",
        format_figure6(figure6_sweep(county=sweep_county, scale=scale)),
        "```",
        "## Occupancy (Concluding Remarks)",
        "```",
        format_occupancy(occupancy_report(county=sweep_county, scale=scale)),
        "```",
        "",
        f"_Generated in {time.perf_counter() - started:.1f} s._",
        "",
    ]

    text = "\n".join(sections)
    if out_path is not None:
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    return text
