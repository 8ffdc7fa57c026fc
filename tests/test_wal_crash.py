"""Crash injection: every crash point must recover to the oracle state.

The matrix (:mod:`repro.wal.crashtest`) truncates or corrupts the log at
every byte-boundary class of every record, interrupts the checkpoint
protocol at each step, and corrupts the checkpoint snapshot itself. Each
recovered store must answer probes identically to a never-crashed
oracle, replay exactly the post-checkpoint suffix, and fsck clean. A
final test kills a real server process with SIGKILL mid-traffic.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.service import send_request
from repro.wal.crashtest import STRUCTURES, run_crash_matrix
from repro.wal.log import scan_log

from tests.conftest import run_cli

# The whole module runs under the runtime lock-order sanitizer: recovery
# and checkpointing take the WAL lock and the pool latch in sequence, and
# any inversion introduced here must fail the suite even on schedules
# that happen not to deadlock.
pytestmark = pytest.mark.usefixtures("lock_sanitizer")


@pytest.mark.parametrize("kind", STRUCTURES)
def test_crash_matrix(kind, tmp_path):
    report = run_crash_matrix(str(tmp_path), kind=kind)
    assert len(report.outcomes) >= 20  # per-record cuts + flips + ckpt + media
    assert report.failures == [], report.summary() + "".join(
        f"\n  {o.case}: {o.detail}" for o in report.failures
    )


_LOG_COMMIT_DIE = """
import os, signal, sys
from repro.geometry import Segment
from repro.wal.log import WriteAheadLog
wal = WriteAheadLog.create(sys.argv[1])
for seg_id in range(5):
    wal.log_insert(seg_id, Segment(seg_id, 0, seg_id + 1, 1))
    wal.sync()  # the ack leaves only after this
wal.log_insert(5, Segment(5, 0, 6, 1))  # never synced, never acked
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestKillDashNine:
    """A real process, real sockets, and an honest SIGKILL."""

    def test_group_commit_acks_survive_a_process_kill(self, tmp_path):
        """Every acked record survives a SIGKILL: the sync before each
        ack hands its frames to the OS and fsyncs them. The record
        appended after the last sync was never acked, and it dies in
        Python's userspace buffer with the process."""
        log = str(tmp_path / "repro.wal")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        child = subprocess.run(
            [sys.executable, "-c", _LOG_COMMIT_DIE, log],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert child.returncode == -signal.SIGKILL
        scan = scan_log(log)
        assert [r.seg_id for r in scan.records] == [0, 1, 2, 3, 4]
        assert scan.tail_error is None

    def test_kill_recover_fsck(self, spawn, tmp_path):
        store = str(tmp_path / "store")
        server = spawn("serve", "--wal", store, "--scale", "0.01", "--port", "0")
        addr = server.address
        inserted = send_request(
            addr, {"op": "insert", "x1": 3, "y1": 4, "x2": 55, "y2": 66}
        )
        assert inserted["ok"]
        assert send_request(addr, {"op": "checkpoint"})["ok"]
        assert send_request(
            addr, {"op": "insert", "x1": 9, "y1": 9, "x2": 42, "y2": 17}
        )["ok"]
        stats = send_request(addr, {"op": "stats"})["result"]
        assert stats["durable"] and stats["last_lsn"] == 2
        server.stop(signal.SIGKILL)

        out = run_cli("recover", "--wal", store)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "1 record(s) replayed" in out.stdout  # only the suffix

        out = run_cli("check", "--wal", store)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "clean" in out.stdout
