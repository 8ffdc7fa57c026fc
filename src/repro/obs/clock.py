"""Monotonic span clock with a single per-process wall-clock anchor.

Span timestamps must satisfy two properties that no single stdlib clock
gives us:

1. **Durations never go negative.** ``time.time()`` steps under NTP
   adjustment; a span that opened before a backwards step and closed
   after it would report a negative duration. Everything here derives
   from ``time.monotonic_ns``, which is immune.
2. **Cross-process trees order correctly.** Monotonic clocks have an
   arbitrary per-process origin, so worker spans cannot be placed on the
   router's timeline from monotonic readings alone. Each process
   therefore captures ONE wall-clock anchor at import time and reports
   wall times as ``anchor + monotonic_delta`` -- a fixed affine map. Two
   processes then differ by a single constant (their anchor skew), which
   the router measures once per connection with a ``clock`` round trip
   and subtracts when stitching.

All figures are integer microseconds: small enough to stay exact in a
double when JSON round-trips them, fine enough for span work.
"""

from __future__ import annotations

import time

#: The process's fixed clock anchor, captured once at import: the pair
#: (monotonic origin, wall time at that origin). Never updated -- a
#: moving anchor would reintroduce exactly the NTP-step hazard this
#: module exists to remove.
_MONO0_NS = time.monotonic_ns()
_WALL0_US = int(time.time() * 1e6)


def now_us() -> int:
    """Microseconds since the process anchor (monotonic, never steps)."""
    return (time.monotonic_ns() - _MONO0_NS) // 1000


def wall_now_us() -> int:
    """Anchored wall-clock microseconds: ``anchor + monotonic_delta``.

    Tracks real time at the anchor's accuracy but inherits the monotonic
    clock's immunity to steps -- two calls never order backwards.
    """
    return _WALL0_US + now_us()


def clock_info() -> dict:
    """The ``{"op": "clock"}`` response: this process's clock identity.

    A client halves the round-trip and compares ``wall_us`` against its
    own midpoint reading to estimate the anchor skew it must subtract
    when placing this process's spans on its timeline.
    """
    import os

    return {
        "wall_us": wall_now_us(),
        "mono_us": now_us(),
        "anchor_us": _WALL0_US,
        "pid": os.getpid(),
    }
