"""A sampling profiler for live servers: pure stdlib, zero deps.

``SamplingProfiler.run`` polls :func:`sys._current_frames` from the
calling thread at ``hz`` for ``seconds``, collapsing each thread's stack
into the semicolon-joined form flamegraph tooling eats
(``frame;frame;frame count``). No signals, no tracing hooks, no
interpreter switches: between samples the server runs at full speed, so
profiling a production process costs one GIL-holding stack walk per
sample.

**Op attribution** rides the engine's existing instrumentation seam:
``QueryEngine.execute`` registers the op it is running against the
executing thread id (``set_op``/``clear_op``, guarded by the same
one-attribute-load ``enabled`` fast path the tracer uses), and the
sampler prefixes that thread's stacks with ``op:<name>`` -- so the
flamegraph splits by *request kind*, not just by code path. Threads
running no op keep their thread name as the prefix (accept loops, the
WAL group-committer, executor idlers).

The wire op ``{"op": "profile", "seconds": s, "hz": h}`` runs the
sampler inside the handler thread; the shard router fans it to every
worker and merges the results under ``shard:<id>;`` prefixes next to
its own samples (:func:`merge_profiles`). Concurrent profile requests
serialize on one lock -- the sampler is a diagnosis tool, not a
steady-state load.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.sanitize import make_lock

#: Hard caps on one profiling run: a typo cannot pin a handler thread
#: for an hour or sample so fast the server starves.
MAX_SECONDS = 60.0
MAX_HZ = 997
#: Frames kept per stack (deepest truncated first).
MAX_DEPTH = 64


def clamp_window(seconds: Any, hz: Any) -> Tuple[float, int]:
    """The ``(seconds, hz)`` a run asked for like this will really use.

    The bound comes first in each ``min``/``max`` so that NaN, which
    loses every comparison, clamps to the floor instead of surviving.
    """
    seconds = min(MAX_SECONDS, max(0.05, float(seconds)))
    return seconds, int(min(MAX_HZ, max(1, float(hz))))


def _collapse(frame: Any, prefix: str) -> str:
    """One thread's stack as ``prefix;outermost;...;innermost``."""
    names = []
    depth = 0
    while frame is not None and depth < MAX_DEPTH:
        code = frame.f_code
        filename = code.co_filename
        slash = filename.rfind("/")
        if slash >= 0:
            filename = filename[slash + 1 :]
        names.append(f"{filename}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    names.append(prefix)
    names.reverse()
    return ";".join(names)


class SamplingProfiler:
    """Sample every thread's stack; attribute samples to the running op."""

    def __init__(self) -> None:
        #: Fast-path flag, same discipline as ``TRACER.enabled``: the
        #: engine checks it with one attribute load per request and only
        #: touches the tid map while a run is live.
        self.enabled = False
        self.runs = 0
        self._ops: Dict[int, str] = {}
        self._run_lock = make_lock("obs.profile.run")

    # -- the engine-side seam ------------------------------------------
    def set_op(self, op: str) -> None:
        """Tag the calling thread with the op it is executing."""
        # Plain dict assignment: atomic under the GIL, distinct keys per
        # thread, and a racy read by the sampler at worst mislabels the
        # one sample straddling the request boundary.
        self._ops[threading.get_ident()] = op

    def clear_op(self) -> None:
        self._ops.pop(threading.get_ident(), None)

    # -- the sampler ----------------------------------------------------
    def run(
        self, seconds: float = 1.0, hz: int = 97, skip_tid: Optional[int] = None
    ) -> Dict[str, Any]:
        """Sample for ``seconds`` at ``hz``; returns the collapsed profile.

        Blocks the calling thread for the duration (that thread is never
        sampled). The result is JSON-ready::

            {"seconds": ..., "hz": ..., "samples": N,
             "stacks": {"op:window;engine.py:_run;...": count, ...}}
        """
        seconds, hz = clamp_window(seconds, hz)
        me = threading.get_ident()
        interval = 1.0 / hz
        stacks: Dict[str, int] = {}
        samples = 0
        with self._run_lock:
            self._ops.clear()
            self.enabled = True  # repro-lint: disable=CC03 -- benign single-writer flag, same contract as TRACER.enabled: engine threads read it lock-free; a stale read mislabels one sample
            deadline = time.monotonic() + seconds
            try:
                while time.monotonic() < deadline:
                    names = {
                        t.ident: t.name for t in threading.enumerate()
                    }
                    ops = self._ops
                    for tid, frame in sys._current_frames().items():
                        if tid == me or tid == skip_tid:
                            continue
                        prefix = ops.get(tid)
                        if prefix is not None:
                            prefix = f"op:{prefix}"
                        else:
                            prefix = names.get(tid, f"tid:{tid}")
                        key = _collapse(frame, prefix)
                        stacks[key] = stacks.get(key, 0) + 1
                        samples += 1
                    time.sleep(interval)  # repro-lint: disable=CC02 -- sleeping IS the run lock's purpose: it serializes whole profiling windows (a diagnosis tool, not a hot path); no request thread ever takes this lock
            finally:
                self.enabled = False  # repro-lint: disable=CC03 -- benign single-writer flag: see above
                self._ops.clear()
                self.runs += 1
        return {
            "seconds": seconds,
            "hz": hz,
            "samples": samples,
            "stacks": stacks,
        }


def merge_profiles(parts: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process profiles under per-part stack prefixes.

    ``parts`` maps a label (``"router"``, ``"shard:s0"``) to one
    profile; every stack is re-rooted under its label so one flamegraph
    shows the whole service with processes side by side.
    """
    stacks: Dict[str, int] = {}
    samples = 0
    seconds = 0.0
    hz = 0
    for label in sorted(parts):
        prof = parts[label]
        for stack, count in prof.get("stacks", {}).items():
            key = f"{label};{stack}"
            stacks[key] = stacks.get(key, 0) + count
        samples += prof.get("samples", 0)
        seconds = max(seconds, prof.get("seconds", 0.0))
        hz = max(hz, prof.get("hz", 0))
    return {
        "seconds": seconds,
        "hz": hz,
        "samples": samples,
        "parts": sorted(parts),
        "stacks": stacks,
    }


def collapsed_text(profile: Dict[str, Any]) -> str:
    """The profile in collapsed-stack text: ``stack count`` per line,
    heaviest first -- feed straight to ``flamegraph.pl``."""
    items = sorted(
        profile.get("stacks", {}).items(), key=lambda kv: (-kv[1], kv[0])
    )
    return "\n".join(f"{stack} {count}" for stack, count in items)


#: The process-wide profiler, mirroring the TRACER singleton.
PROFILER = SamplingProfiler()
