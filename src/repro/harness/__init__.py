"""Experiment harness: everything needed to regenerate the paper's
tables and figures.

* :mod:`~repro.harness.experiment` -- build one structure over one map
  with full metric attribution.
* :mod:`~repro.harness.workloads` -- the seven query workloads of
  Table 2 / Figures 7-9 (point1, point2, nearest x 2 point models,
  polygon x 2 point models, range).
* :mod:`~repro.harness.build_stats` -- Table 1 (size / build disk
  accesses / build cpu seconds per county and structure).
* :mod:`~repro.harness.query_stats` -- one map's query measurements
  (Table 2 is the Charles county instance).
* :mod:`~repro.harness.normalized` -- the normalized ranges plotted in
  Figures 7-9.
* :mod:`~repro.harness.sweeps` -- the page-size / buffer-size build sweep
  of Figure 6.
* :mod:`~repro.harness.occupancy` -- the Concluding Remarks occupancy
  analysis and PMR threshold sweep.
* :mod:`~repro.harness.tables` -- plain-text renderings in the paper's
  row/column layout.
"""

from repro.harness.build_stats import BuildRow, table1
from repro.harness.experiment import BuiltStructure, build_structure
from repro.harness.normalized import NormalizedRange, normalized_ranges
from repro.harness.occupancy import occupancy_report, pmr_threshold_sweep
from repro.harness.surveys import PolygonSurvey, polygon_size_survey
from repro.harness.sweeps import figure6_sweep
from repro.harness.tables import (
    format_figure6,
    format_normalized_bars,
    format_normalized,
    format_occupancy,
    format_table1,
    format_table2,
)
from repro.harness.workloads import WORKLOAD_NAMES, QueryStats, run_workloads

__all__ = [
    "BuildRow",
    "BuiltStructure",
    "NormalizedRange",
    "PolygonSurvey",
    "QueryStats",
    "WORKLOAD_NAMES",
    "build_structure",
    "figure6_sweep",
    "format_figure6",
    "format_normalized",
    "format_normalized_bars",
    "format_occupancy",
    "format_table1",
    "format_table2",
    "normalized_ranges",
    "occupancy_report",
    "pmr_threshold_sweep",
    "polygon_size_survey",
    "table1",
]
