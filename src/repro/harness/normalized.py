"""Normalized ranges (Figures 7-9).

Section 6: because the counties differ so much (urban polygons of ~19
edges vs rural ones of ~132), per-map measurements are normalized against
the PMR quadtree's value on the same map; each figure then shows, per
structure and workload, the *normalized range* -- min, average, and max
of the normalized value over the six maps. PMR is identically 1.

Figure 7 (bounding box computations) instead normalizes the R+-tree
against the R*-tree, because the PMR's bucket computations are about two
orders of magnitude smaller and would flatten the plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.harness.workloads import WORKLOAD_NAMES


@dataclass
class NormalizedRange:
    """min/avg/max of a normalized metric over the maps."""

    structure: str
    workload: str
    metric: str
    minimum: float
    average: float
    maximum: float

    @classmethod
    def from_values(
        cls, structure: str, workload: str, metric: str, values: Sequence[float]
    ) -> "NormalizedRange":
        return cls(
            structure=structure,
            workload=workload,
            metric=metric,
            minimum=min(values),
            average=sum(values) / len(values),
            maximum=max(values),
        )


def by_structure(rows: List[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """A county's workload rows of a record as ``{structure: {workload: row}}``."""
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for row in rows:
        out.setdefault(row["structure"], {})[row["workload"]] = row
    return out


def normalized_ranges(
    record: Dict[str, Any],
    metric: str,
    structures: Sequence[str] = ("R+", "R*"),
    baseline: str = "PMR",
) -> List[NormalizedRange]:
    """Reduce a record's per-county workload rows to the figures'
    normalized ranges.

    ``metric`` is one of ``disk_accesses``, ``segment_comps``,
    ``bbox_comps``. Use ``baseline="R*"`` with ``structures=("R+",)``
    for Figure 7.
    """
    per_county = {
        name: by_structure(county["workloads"])
        for name, county in record["counties"].items()
    }
    ranges: List[NormalizedRange] = []
    for structure in structures:
        for workload in WORKLOAD_NAMES:
            values = []
            for stats in per_county.values():
                base = stats[baseline][workload][metric]
                val = stats[structure][workload][metric]
                if base == 0:
                    continue  # degenerate map; nothing to normalize
                values.append(val / base)
            if values:
                ranges.append(
                    NormalizedRange.from_values(structure, workload, metric, values)
                )
    return ranges
