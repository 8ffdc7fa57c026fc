"""Runtime lock-order sanitizer: lockdep for the map service.

The static pass (:mod:`repro.analysis.concurrency`) proves discipline
over the code that exists; this module watches the code that *runs*. It
is the dynamic half of the concurrency sanitizer: every instrumented
lock acquisition is recorded against the set of locks the acquiring
thread already holds, building a global lock-ordering graph across the
whole process. A **potential deadlock** is reported the moment an
acquisition closes a cycle in that graph — two threads never have to
actually collide, one thread taking A→B on Monday and another taking
B→A on Tuesday is enough — which is exactly what a crash-injection or
shard-smoke run needs: the hazard is caught on any schedule, not just
the unlucky one.

Design constraints, in order:

1. **Zero cost when disabled.** The service takes several locks per
   request (latch, cache, histogram); the sanitizer must not tax the
   hot path when off. Instrumented call sites are guarded by a single
   ``if SANITIZER.enabled:`` attribute test (the same pattern as
   ``TRACER.enabled`` in :mod:`repro.obs.trace`), and
   :class:`TrackedLock` delegates straight to the underlying
   ``threading`` primitive on the disabled path.
2. **No repro imports.** Every layer (``storage``, ``wal``, ``obs``,
   ``service``, ``shard``) hooks into this module, so it must sit below
   all of them: stdlib only, no cycles.
3. **Observation, not enforcement.** The sanitizer never blocks, never
   raises from a hook, and keeps serving after recording a cycle; the
   report is consumed at the end of a test (the ``lock_sanitizer``
   pytest fixture asserts no potential deadlocks) or scraped from
   ``stats()``/Prometheus during a smoke run.

Enable with ``REPRO_SANITIZE=1`` in the environment (picked up at
import, so worker subprocesses inherit it) or the ``--sanitize`` flag on
``serve`` / ``route`` / ``shard-worker``.

What is recorded:

* ``acquisitions`` — total tracked lock acquisitions.
* ``edges`` — distinct ordered pairs (A held while B acquired), each
  with the thread name and ``file:line`` of the acquisition that first
  created it.
* ``potential_deadlocks`` — cycles in the edge graph, reported once per
  distinct cycle with both edges' provenance.
* ``held_across_blocking`` — counts of blocking operations (fsync,
  socket I/O, …) executed while holding a tracked lock, keyed by
  ``(operation, site, held-locks)``. These are *counters*, not
  failures: the WAL's rotation fsync under its lock and the
  checkpoint's fsyncs under the buffer-pool latch are sanctioned (and
  carry static-pass pragmas); the runtime tally makes the cost visible
  in docs/metrics.md rather than silently absorbed.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SANITIZER",
    "LockOrderSanitizer",
    "TrackedLock",
    "TrackedCondition",
    "enabled_from_env",
    "make_condition",
    "make_lock",
]

#: Environment switch; truthy values ("1", "true", "yes", "on") enable.
ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def enabled_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    env = os.environ if environ is None else environ
    return env.get(ENV_VAR, "").strip().lower() in _TRUTHY


def _call_site(depth: int) -> str:
    """``file:line`` of the instrumented caller (best effort, cheap)."""
    try:
        frame = sys._getframe(depth)
    except ValueError:  # shallower stack than expected (embedded use)
        return "?"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


class LockOrderSanitizer:
    """Process-wide acquisition recorder and ordering-graph keeper.

    Thread-safety: per-thread held stacks live in a ``threading.local``;
    the shared graph and report lists are guarded by one internal mutex
    that is only ever taken by sanitizer hooks (never while a hook holds
    it calls out), so the sanitizer itself cannot deadlock or invert.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._mutex = threading.Lock()
        # (held_name, acquired_name) -> {"count", "thread", "site"}
        self._edges: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._succ: Dict[str, List[str]] = {}  # adjacency for cycle search
        self._cycles: List[Dict[str, Any]] = []
        self._cycle_keys: set = set()
        # (op, site, held) -> count
        self._blocking: Dict[Tuple[str, str, str], int] = {}
        self.acquisitions = 0

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded state (per-test isolation)."""
        with self._mutex:
            self._edges.clear()
            self._succ.clear()
            self._cycles.clear()
            self._cycle_keys.clear()
            self._blocking.clear()
            self.acquisitions = 0

    # -- per-thread held stack -----------------------------------------
    def _held(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def held_locks(self) -> Tuple[str, ...]:
        """Names of locks the calling thread currently holds (oldest first)."""
        return tuple(self._held())

    # -- hooks (called from instrumented primitives) -------------------
    def note_acquire(self, name: str) -> None:
        """Record that the calling thread now holds ``name``."""
        held = self._held()
        site = _call_site(3)  # note_acquire <- TrackedLock/Latch <- caller
        with self._mutex:
            self.acquisitions += 1
            for prior in held:
                if prior == name:
                    continue  # reentrant hold, not an ordering edge
                edge = (prior, name)
                if edge in self._edges:
                    self._edges[edge]["count"] += 1
                    continue
                self._edges[edge] = {
                    "count": 1,
                    "thread": threading.current_thread().name,
                    "site": site,
                }
                self._succ.setdefault(prior, []).append(name)
                path = self._find_path(name, prior)
                if path is not None:
                    self._record_cycle(path + [name], edge)
        held.append(name)

    def note_release(self, name: str) -> None:
        """Record that the calling thread dropped ``name``.

        Tolerates unknown names (the sanitizer may be enabled while
        locks are already held, or disabled between acquire/release).
        """
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    def note_blocking(self, op: str, where: str) -> None:
        """Record a blocking operation (fsync, socket I/O) at ``where``.

        Only tallied when the calling thread holds a tracked lock; the
        unlocked case is ordinary I/O and not the sanitizer's business.
        """
        held = self._held()
        if not held:
            return
        key = (op, where, "+".join(held))
        with self._mutex:
            self._blocking[key] = self._blocking.get(key, 0) + 1

    # -- graph ---------------------------------------------------------
    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS path start→goal over recorded edges (``None`` if absent)."""
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in self._succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def _record_cycle(self, cycle: List[str], closing: Tuple[str, str]) -> None:
        """Report ``cycle`` (first == last) once per distinct node set."""
        key = frozenset(cycle)
        if key in self._cycle_keys:
            return
        self._cycle_keys.add(key)
        edges = []
        for a, b in zip(cycle, cycle[1:]):
            info = self._edges.get((a, b), {})
            edges.append(
                {
                    "from": a,
                    "to": b,
                    "thread": info.get("thread", "?"),
                    "site": info.get("site", "?"),
                }
            )
        self._cycles.append(
            {
                "cycle": cycle,
                "edges": edges,
                "closed_by": f"{closing[0]} -> {closing[1]}",
            }
        )

    # -- reporting -----------------------------------------------------
    def report(self) -> Dict[str, Any]:
        with self._mutex:
            return {
                "enabled": self.enabled,
                "acquisitions": self.acquisitions,
                "edges": len(self._edges),
                "potential_deadlocks": [dict(c) for c in self._cycles],
                "held_across_blocking": {
                    f"{op}@{where} holding {held}": count
                    for (op, where, held), count in sorted(self._blocking.items())
                },
            }

    def format_report(self) -> str:
        rep = self.report()
        lines = [
            f"lock sanitizer: {rep['acquisitions']} acquisitions, "
            f"{rep['edges']} ordering edge(s), "
            f"{len(rep['potential_deadlocks'])} potential deadlock(s)"
        ]
        for cyc in rep["potential_deadlocks"]:
            lines.append("  POTENTIAL DEADLOCK: " + " -> ".join(cyc["cycle"]))
            for e in cyc["edges"]:
                lines.append(
                    f"    {e['from']} held while acquiring {e['to']} "
                    f"[thread {e['thread']} at {e['site']}]"
                )
        for desc, count in rep["held_across_blocking"].items():
            lines.append(f"  blocking under lock: {desc} x{count}")
        return "\n".join(lines)


#: The process-wide sanitizer all instrumented primitives report to.
SANITIZER = LockOrderSanitizer()
if enabled_from_env():  # inherited by worker subprocesses via the env
    SANITIZER.enable()


class TrackedLock:
    """A named ``threading.Lock``/``RLock`` that reports to the sanitizer.

    Drop-in for the module-level locks across ``wal``/``obs``/``service``/
    ``shard``: supports ``with``, ``acquire``/``release``, and ``locked``.
    The name is the lock's identity in the ordering graph, so it should
    be unique per *role* (``wal.log``, ``service.cache``) — two instances
    of the same role sharing a name is fine (they share an ordering
    contract), two roles sharing a name is not.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got and SANITIZER.enabled:
            SANITIZER.note_acquire(self.name)
        return got

    def release(self) -> None:
        if SANITIZER.enabled:
            SANITIZER.note_release(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self._inner.acquire()
        if SANITIZER.enabled:
            SANITIZER.note_acquire(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        if SANITIZER.enabled:
            SANITIZER.note_release(self.name)
        self._inner.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrackedLock({self.name!r})"


def make_lock(name: str, reentrant: bool = False) -> Any:
    """A role lock: tracked iff the sanitizer is enabled *right now*.

    The sanitizer is switched on before any lock-owning object exists --
    at import via ``REPRO_SANITIZE`` or by ``--sanitize`` before the
    engine/store/router is constructed -- so deciding per *construction*
    rather than per *acquisition* is sound, and it buys back the entire
    disabled-path cost: an untracked role lock is a plain C
    ``threading.Lock`` again, not a Python wrapper that re-checks a flag
    it will never see flip. (Enabling the sanitizer after an object was
    built leaves that object's locks untracked; every supported entry
    point enables first.)
    """
    if SANITIZER.enabled:
        return TrackedLock(name, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def make_condition(name: str) -> Any:
    """A role condition variable: tracked iff enabled now (see make_lock)."""
    if SANITIZER.enabled:
        return TrackedCondition(name)
    return threading.Condition()


class TrackedCondition:
    """A named ``threading.Condition`` that reports to the sanitizer.

    ``wait()`` releases the underlying lock, but for ordering purposes
    the thread still *owns* the monitor — any lock it acquires after
    waking is ordered after this one, which is exactly the conservative
    edge we want for the router's drain gate.
    """

    __slots__ = ("name", "_cond")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cond = threading.Condition()

    def __enter__(self) -> "TrackedCondition":
        self._cond.__enter__()
        if SANITIZER.enabled:
            SANITIZER.note_acquire(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        if SANITIZER.enabled:
            SANITIZER.note_release(self.name)
        self._cond.__exit__(*exc)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._cond.wait(timeout)

    def wait_for(self, predicate: Any, timeout: Optional[float] = None) -> Any:
        return self._cond.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrackedCondition({self.name!r})"
