"""Child processes, scratch space and cached build artifacts.

Every server the benchmark measures is started through the public CLI
(``python -m repro snapshot|serve|shard-init|shard-worker|route``) as a
child process on an ephemeral port. All state a run writes lives under
one directory inside the checkout, removed when the run ends -- also when
it ends by an exception or SIGTERM.

Paper-scale artifacts (snapshots, the shard set) take 6-21 s each to
build, too long to repeat in every one of the driver's runs. They are
built once per checkout into ``.bench_build/e2e/cache-<hash>``, keyed by
a hash of every file under ``src/`` and of the configuration, so a
checkout with different sources never reuses them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .config import HERE, ROOT, SLUG, SRC, Config
from .reference import Reference

#: Build outputs and scratch space: inside the checkout (the driver
#: forbids writing elsewhere) and named in the root ``.gitignore``.
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")

_ADDRESS = re.compile(r" on (\d+\.\d+\.\d+\.\d+):(\d+)")
_START_TIMEOUT = 120.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # one source of run-to-run variation less
    env.pop("REPRO_SANITIZE", None)
    return env


def run_cli(args: Sequence[str], timeout: float = 600.0) -> float:
    """Run one ``python -m repro`` command to completion; returns seconds."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} exited {done.returncode}: {done.stdout}"
        )
    return time.perf_counter() - start


class Child:
    """One server process: ``python <argv>``."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.args = list(argv)
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )

    def wait_listening(self) -> Tuple[str, int]:
        """Block until the server prints the address it listens on."""
        deadline = time.monotonic() + _START_TIMEOUT
        seen = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            match = _ADDRESS.search(seen.decode("utf-8", "replace"))
            if match and b"\n" in seen[match.end():]:
                return match.group(1), int(match.group(2))
        raise RuntimeError(
            f"python {' '.join(self.args)} did not start: "
            f"{seen.decode('utf-8', 'replace')!r}"
        )

    def stop(self, sig: int = signal.SIGINT) -> None:
        """Signal the process and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def kill(self) -> None:
        self.stop(signal.SIGKILL)


def peak_rss_mb(pid: int) -> float:
    """A running process's high-water RSS in MiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class Scratch:
    """The run's scratch directory and the children it started.

    A context manager: leaving it stops every child (waiting for each)
    and removes the directory, whatever ended the run.
    """

    def __init__(self) -> None:
        os.makedirs(BUILD_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
        self.children: List[Child] = []
        self._reference: Optional[Tuple[Child, Reference]] = None
        self._old_sigterm = None

    def __enter__(self) -> "Scratch":
        def on_sigterm(signum, frame):
            raise SystemExit(128 + signum)

        self._old_sigterm = signal.signal(signal.SIGTERM, on_sigterm)
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.stop_all()
            if self._reference is not None:
                self._reference[0].stop()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
            signal.signal(signal.SIGTERM, self._old_sigterm)

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    def spawn(self, args: Sequence[str]) -> Child:
        """One process of the measured system, through the CLI."""
        child = Child(["-m", "repro", *args])
        self.children.append(child)
        return child

    def reference(self) -> Reference:
        """The reference echo service (started on first use). It is not
        part of the measured system: ``stop_all`` leaves it up and
        ``peak_rss_mb`` does not count it."""
        if self._reference is None:
            child = Child([os.path.join(HERE, "reference.py")])
            self._reference = (child, Reference(child.wait_listening()))
        return self._reference[1]

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS of the children now running."""
        return sum(peak_rss_mb(c.proc.pid) for c in self.children if c.proc.poll() is None)

    def stop_all(self) -> None:
        """Stop every process of the measured system, all at once, and
        wait until each has ended."""
        for child in self.children:
            if child.proc.poll() is None:
                child.proc.send_signal(signal.SIGINT)
        for child in self.children:
            child.stop()
        self.children = []


# ----------------------------------------------------------------------
# Cached build artifacts
# ----------------------------------------------------------------------
def _source_hash(cfg: Config) -> str:
    digest = hashlib.sha256(
        json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    )
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


class Artifacts:
    """Snapshots and the shard set, built through the CLI on first use."""

    def __init__(self, cfg: Config) -> None:
        self.cfg = cfg
        self.dir = os.path.join(BUILD_DIR, f"cache-{_source_hash(cfg)}")
        os.makedirs(self.dir, exist_ok=True)
        #: Seconds spent building, by artifact, for those built in this
        #: run (a cache hit leaves no entry).
        self.built_s: Dict[str, float] = {}

    def _map_args(self) -> List[str]:
        return ["--county", self.cfg.county, "--scale", str(self.cfg.scale)]

    def _build(self, name: str, make, rebuild: bool) -> str:
        path = os.path.join(self.dir, name)
        if os.path.exists(path) and not rebuild:
            return path
        staging = tempfile.mkdtemp(prefix="staging-", dir=self.dir)
        try:
            target = os.path.join(staging, name)
            self.built_s[name] = make(target)
            if os.path.isdir(path):
                shutil.rmtree(path)
            os.replace(target, path)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return path

    def snapshot(self, structure: str, rebuild: bool = False) -> str:
        """``snapshot --structure S`` at the CLI's page size (1 KiB)."""
        return self._build(
            f"{SLUG[structure]}.snap",
            lambda out: run_cli(
                ["snapshot", *self._map_args(), "--structure", structure,
                 "--out", out]
            ),
            rebuild,
        )

    def shard_set(self, rebuild: bool = False) -> str:
        cfg = self.cfg
        return self._build(
            "shards",
            lambda out: run_cli(
                ["shard-init", *self._map_args(), "--structure", "R*",
                 "--root", out, "--n-shards", str(cfg.n_shards),
                 "--page-size", str(cfg.page_size),
                 "--pool-pages", str(cfg.pool_pages)]
            ),
            rebuild,
        )


def tree_bytes(path: str) -> int:
    """Bytes on disk under ``path`` (a file or a directory)."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
