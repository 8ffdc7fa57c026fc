"""Build metadata: the git SHA and the ``repro_build_info`` info-gauge.

``repro_build_info`` follows the Prometheus info-metric convention: the
value is the constant 1 and the payload lives in the labels, so a
dashboard can join any series against the version/SHA/page-geometry that
produced it.
"""

from __future__ import annotations

import os
import subprocess
from typing import Optional

from repro.obs.metrics import Gauge, MetricsRegistry, get_registry


def git_sha(short: bool = True) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git work tree."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def publish_build_info(
    registry: Optional[MetricsRegistry] = None,
    *,
    page_size: int,
    grid_bits: int,
) -> Gauge:
    """Register ``repro_build_info`` (value 1, metadata in the labels).

    ``grid_bits`` is the locational-code resolution (the world's
    ``WORLD_DEPTH``); passed in rather than imported so this module never
    pulls in ``repro.core`` (which itself imports ``repro.obs``).
    """
    from repro import __version__

    registry = registry if registry is not None else get_registry()
    gauge = registry.gauge(
        "repro_build_info",
        version=__version__,
        git_sha=git_sha(),
        page_size=str(page_size),
        grid_bits=str(grid_bits),
    )
    gauge.set(1)
    return gauge
