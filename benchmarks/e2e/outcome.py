"""What one run of one workload measured."""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Dict, List, Sequence, Tuple


@dataclasses.dataclass
class Outcome:
    end_to_end: Dict[str, float] = dataclasses.field(default_factory=dict)
    per_layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Sample counts behind the numbers, by metric.
    samples: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Operations attempted (requests, and answers checked), and those
    #: that failed, were refused, or were answered wrongly.
    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)
    #: Printed beside the end-to-end metrics, registered nowhere:
    #: ``name -> (value, unit)``.
    extras: Dict[str, Tuple[float, str]] = dataclasses.field(default_factory=dict)

    def host_note(self, rates: Sequence[float], summary: Dict[str, Any]) -> None:
        """Record what the host did during the run: the reference rates
        sampled, and the timings as they read before correction."""
        self.extras["reference_per_s"] = (statistics.median(rates), "1/s")
        self.samples["reference_per_s"] = len(rates)
        for name, unit in (("raw_ops_per_s", "1/s"), ("raw_p50_ms", "ms"), ("raw_p99_ms", "ms")):
            self.extras[name] = (summary[name], unit)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"FAILED: {what}")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
