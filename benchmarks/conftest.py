"""Shared configuration for the ablation and extension benchmarks.

The paper's own tables and figures are not re-derived here: they are the
committed ``REPORT.json`` (``python -m repro report --out REPORT.md``),
and ``tests/test_paper_claims.py`` asserts their claims on it.

Scale knobs (environment variables):

* ``REPRO_SCALE``   -- fraction of the paper's ~50 000 segments per county
  (default 0.05, i.e. ~2 500 segments). ``REPRO_SCALE=1`` runs paper-scale
  maps; expect tens of minutes in pure Python.
* ``REPRO_QUERIES`` -- queries per workload (default 100; the paper ran
  1000).

Each benchmark writes what it measures to ``benchmarks/results/`` and
asserts a *shape* claim (who wins, by roughly what factor); absolute
values differ from the 1992 hardware by construction.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro.data import COUNTY_NAMES, generate_county

SCALE = float(os.environ.get("REPRO_SCALE", "0.05"))
N_QUERIES = int(os.environ.get("REPRO_QUERIES", "100"))

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    header = f"# scale={SCALE} queries={N_QUERIES}\n"
    path.write_text(header + text + "\n")
    return path


@pytest.fixture(scope="session")
def county_maps() -> Dict[str, "MapData"]:
    """All six synthetic counties at the configured scale."""
    return {name: generate_county(name, scale=SCALE) for name in COUNTY_NAMES}

