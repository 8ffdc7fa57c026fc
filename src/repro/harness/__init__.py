"""Experiment harness: everything needed to regenerate the paper's
tables and figures.

* :mod:`~repro.harness.experiment` -- build one structure over one map
  with full metric attribution.
* :mod:`~repro.harness.workloads` -- the seven query workloads of
  Table 2 / Figures 7-9 (point1, point2, nearest x 2 point models,
  polygon x 2 point models, range).
* :mod:`~repro.harness.report` -- the reproduction record: each county's
  three structures built once, measured for Table 1, the workloads, the
  occupancy analysis and (on one county) the page/pool sweep of Figure 6.
* :mod:`~repro.harness.normalized` -- the normalized ranges plotted in
  Figures 7-9.
* :mod:`~repro.harness.tables` -- plain-text renderings in the paper's
  row/column layout, and ``render``, a record as markdown.
"""

from repro.harness.experiment import BuiltStructure, build_structure
from repro.harness.normalized import NormalizedRange, normalized_ranges
from repro.harness.report import full_report, measure, measure_county, query_stats
from repro.harness.surveys import PolygonSurvey, polygon_size_survey
from repro.harness.tables import (
    format_figure6,
    format_normalized_bars,
    format_normalized,
    format_occupancy,
    format_table1,
    format_table2,
    render,
)
from repro.harness.workloads import WORKLOAD_NAMES, QueryStats, run_workloads

__all__ = [
    "BuiltStructure",
    "NormalizedRange",
    "PolygonSurvey",
    "QueryStats",
    "WORKLOAD_NAMES",
    "build_structure",
    "format_figure6",
    "format_normalized",
    "format_normalized_bars",
    "format_occupancy",
    "format_table1",
    "format_table2",
    "full_report",
    "measure",
    "measure_county",
    "normalized_ranges",
    "polygon_size_survey",
    "query_stats",
    "render",
    "run_workloads",
]
