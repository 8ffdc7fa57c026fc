"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from typing import List, Tuple

import pytest

from repro.core import STRUCTURES
from repro.geometry import Point, Rect, Segment
from repro.storage import StorageContext

#: Small world so tests exercise deep decompositions quickly.
TEST_WORLD = 1024
TEST_DEPTH = 10

ALL_STRUCTURES = ["R*", "R", "R+", "PMR"]


#: What sizes a structure for the small test world beside its extent.
_TEST_KWARGS = {"PMR": {"max_depth": TEST_DEPTH}}


def make_index(kind: str, ctx: StorageContext):
    """Construct a structure sized for the small test world."""
    cls = STRUCTURES[kind]
    world = cls.extent_params(Rect(0, 0, TEST_WORLD, TEST_WORLD))
    return cls(ctx, **world, **_TEST_KWARGS.get(kind, {}))


def build_index(kind: str, segments: List[Segment], page_size=1024, pool_pages=16):
    """Load a segment table and build one index over it."""
    ctx = StorageContext.create(page_size=page_size, pool_pages=pool_pages)
    idx = make_index(kind, ctx)
    for seg_id in ctx.load_segments(segments):
        idx.insert(seg_id)
    return idx


def lattice_map(n: int = 8, pitch: int = 100, jitter: int = 0, seed: int = 0):
    """A planar grid map inside the test world (optionally jittered)."""
    rng = random.Random(seed)

    def pt(i, j):
        x = (i + 1) * pitch + (rng.randint(-jitter, jitter) if jitter else 0)
        y = (j + 1) * pitch + (rng.randint(-jitter, jitter) if jitter else 0)
        return (x, y)

    points = {(i, j): pt(i, j) for i in range(n) for j in range(n)}
    segs = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                a, b = points[(i, j)], points[(i + 1, j)]
                segs.append(Segment(a[0], a[1], b[0], b[1]))
            if j + 1 < n:
                a, b = points[(i, j)], points[(i, j + 1)]
                segs.append(Segment(a[0], a[1], b[0], b[1]))
    return segs


def random_planar_segments(rng: random.Random, n_cells: int = 6) -> List[Segment]:
    """A random planar subset of a jittered lattice (shared-endpoint only)."""
    pitch = TEST_WORLD // (n_cells + 2)
    jitter = pitch // 4
    points = {}
    for i in range(n_cells):
        for j in range(n_cells):
            points[(i, j)] = (
                (i + 1) * pitch + rng.randint(-jitter, jitter),
                (j + 1) * pitch + rng.randint(-jitter, jitter),
            )
    segs = []
    for i in range(n_cells):
        for j in range(n_cells):
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 < n_cells and j2 < n_cells and rng.random() < 0.7:
                    a, b = points[(i, j)], points[(i2, j2)]
                    segs.append(Segment(a[0], a[1], b[0], b[1]))
    if not segs:  # ensure non-empty
        a, b = points[(0, 0)], points[(1, 0)]
        segs.append(Segment(a[0], a[1], b[0], b[1]))
    return segs


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------
def oracle_at_point(segments: List[Segment], p: Point) -> List[int]:
    return [i for i, s in enumerate(segments) if s.has_endpoint(p)]


def oracle_in_window(segments: List[Segment], w: Rect) -> List[int]:
    return [i for i, s in enumerate(segments) if s.intersects_rect(w)]


def oracle_nearest_dist2(segments: List[Segment], p: Point) -> float:
    return min(s.distance2_to_point(p) for s in segments)


@pytest.fixture(params=ALL_STRUCTURES)
def any_structure(request):
    """Parametrize a test over every index structure."""
    return request.param


@pytest.fixture()
def lock_sanitizer():
    """Run one test under the runtime lock-order sanitizer.

    Enables :data:`repro.sanitize.SANITIZER` for the test's duration and
    asserts at teardown that the test's schedule produced **no potential
    deadlock** -- i.e. the global lock-ordering graph stayed acyclic.
    Suites whose value is concurrency coverage (crash injection, the
    sharded service) opt in module-wide with
    ``pytestmark = pytest.mark.usefixtures("lock_sanitizer")``.
    """
    from repro.sanitize import SANITIZER

    SANITIZER.reset()
    SANITIZER.enable()
    yield SANITIZER
    report = SANITIZER.report()
    text = SANITIZER.format_report()
    SANITIZER.disable()
    SANITIZER.reset()
    assert report["potential_deadlocks"] == [], text


# ----------------------------------------------------------------------
# Child processes: ``python -m repro ...`` as an operator starts it
# ----------------------------------------------------------------------
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
_BANNER = re.compile(r" on (\d+\.\d+\.\d+\.\d+):(\d+)")


def _child(args, **popen):
    env = dict(os.environ, PYTHONPATH=_SRC, PYTHONDONTWRITEBYTECODE="1")
    env.pop("REPRO_SANITIZE", None)  # a test asks for it with --sanitize
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.PIPE,
        # A pytest started in the background inherits SIGINT ignored, and
        # Python then never raises KeyboardInterrupt: give it back.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        **popen,
    )


def run_cli(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """One ``python -m repro`` command run to completion in a child
    process: ``returncode``, ``stdout`` and ``stderr`` (text)."""
    proc = _child(args, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


class ServerProcess:
    """One ``python -m repro serve|shard-worker|route`` child process,
    listening: ``address`` is parsed from the `` on HOST:PORT`` banner."""

    def __init__(self, args: Tuple[str, ...], start_timeout: float = 60.0) -> None:
        self.args = args
        self.output = ""
        self.proc = _child(args, stderr=subprocess.STDOUT)
        try:
            self.address = self._wait_listening(time.monotonic() + start_timeout)
        except BaseException:
            self.stop(signal.SIGKILL)
            raise

    def _wait_listening(self, deadline: float) -> Tuple[str, int]:
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            self.output += chunk.decode("utf-8", "replace")
            match = _BANNER.search(self.output)
            if match and "\n" in self.output[match.end():]:
                return match.group(1), int(match.group(2))
        raise AssertionError(
            f"repro {' '.join(self.args)} never announced its address: "
            f"{self.output!r}"
        )

    def stop(self, sig: int = signal.SIGINT, timeout: float = 30.0) -> int:
        """Signal the process (SIGINT: the operator's Ctrl-C), wait --
        bounded -- until it has ended, and return its exit code. What it
        printed on the way out is appended to ``output``."""
        if self.proc.stdout.closed:
            return self.proc.returncode
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            rest, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.output += rest.decode("utf-8", "replace")
        return self.proc.returncode


@pytest.fixture()
def spawn():
    """Start ``python -m repro <server> ...`` children on ephemeral ports
    (pass ``--port 0``); every one still running when the test ends --
    passed or failed -- is killed and reaped."""
    children: List[ServerProcess] = []

    def start(*args: str) -> ServerProcess:
        child = ServerProcess(args)
        children.append(child)
        return child

    yield start
    for child in children:
        child.stop(signal.SIGKILL)
