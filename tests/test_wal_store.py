"""The durable store: checkpoint protocol, recovery replay, WAL fsck."""

import json
import os

import pytest

from repro.analysis import ERROR, check_durable, check_wal, has_errors
from repro.geometry import Point, Segment
from repro.service.engine import QueryEngine
from repro.storage import StorageContext
from repro.wal import DurableStore, WalError, open_durable, replay_records
from repro.wal.crashtest import base_map, make_index
from repro.wal.records import DeleteRecord, InsertRecord
from repro.wal.store import LOG_NAME, MANIFEST_NAME


def build_store(root, kind="R*", group_commit=1):
    ctx = StorageContext.create()
    index = make_index(kind, ctx)
    for seg_id in ctx.load_segments(base_map()):
        index.insert(seg_id)
    return DurableStore.create(root, index, group_commit=group_commit)


class TestDurableStore:
    def test_create_then_open_round_trip(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        n = len(store.index.ctx.segments)
        store.close()
        reopened = open_durable(root)
        assert len(reopened.index.ctx.segments) == n
        assert reopened.checkpoint_lsn == 0
        assert reopened.replayed_records == 0
        reopened.close()

    def test_create_refuses_existing_store(self, tmp_path):
        root = tmp_path / "store"
        build_store(root).close()
        with pytest.raises(FileExistsError):
            build_store(root)

    def test_mutations_survive_reopen(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        seg_id = engine.insert_segment(Segment(11, 13, 77, 91))
        engine.delete(0)
        store.close()
        recovered = open_durable(root)
        assert recovered.replayed_records == 2
        assert seg_id in recovered.index.candidate_ids_at_point(Point(11, 13))
        with pytest.raises(KeyError):
            recovered.index.delete(0)  # the delete was replayed
        recovered.close()

    def test_checkpoint_truncates_replay_suffix(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        engine.insert_segment(Segment(11, 13, 77, 91))
        engine.insert_segment(Segment(200, 10, 340, 44))
        result = engine.checkpoint()
        assert result["checkpoint_lsn"] == 2
        assert result["folded_records"] == 2
        size = os.path.getsize(DurableStore.paths(root)["snapshot"])
        assert result["header_bytes"] + result["page_area_bytes"] == size
        assert result["bytes_per_segment"] == round(size / len(store.index.ctx.segments), 2)
        engine.insert_segment(Segment(600, 600, 700, 770))  # LSN 3
        store.close()
        recovered = open_durable(root)
        # Acceptance: recovery after a checkpoint replays ONLY the suffix.
        assert recovered.checkpoint_lsn == 2
        assert recovered.replayed_records == 1
        recovered.close()

    def test_engine_checkpoint_requires_durable_mode(self):
        ctx = StorageContext.create()
        index = make_index("R*", ctx)
        with pytest.raises(RuntimeError, match="durable"):
            QueryEngine(index).checkpoint()

    def test_engine_must_serve_the_stores_index(self, tmp_path):
        store = build_store(tmp_path / "store")
        other = make_index("R*", StorageContext.create())
        with pytest.raises(ValueError, match="store's own index"):
            QueryEngine(other, store=store)
        store.close()

    def test_stats_carry_wal_counters(self, tmp_path):
        store = build_store(tmp_path / "store")
        engine = QueryEngine(store.index, store=store)
        engine.insert_segment(Segment(5, 5, 25, 25))
        stats = engine.stats()
        assert stats["durable"] is True
        assert stats["last_lsn"] == 1
        assert stats["wal"]["log_appends"] == 1
        assert stats["wal"]["fsyncs"] >= 1
        assert stats["wal"]["replayed_records"] == 0
        store.close()

    def test_non_durable_stats_have_no_wal(self):
        engine = QueryEngine(make_index("R*", StorageContext.create()))
        stats = engine.stats()
        assert stats["durable"] is False
        assert "wal" not in stats


class TestReplaySemantics:
    def test_duplicate_replay_is_idempotent(self, tmp_path):
        """Applying the same records twice converges to the same state."""
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        a = engine.insert_segment(Segment(31, 41, 59, 26))
        engine.delete(1)
        store.close()

        recovered = open_durable(root)
        records = [
            InsertRecord(1, a, Segment(31, 41, 59, 26)),
            DeleteRecord(2, 1),
        ]
        second = replay_records(recovered.index, records, checkpoint_lsn=0)
        assert second.replayed_records == 2
        assert second.inserted == 0  # insert already present: skipped
        assert second.deleted == 0
        assert second.noop_deletes == 1  # delete already applied: no-op
        recovered.close()

    def test_insert_gap_is_rejected(self, tmp_path):
        store = build_store(tmp_path / "store")
        n = len(store.index.ctx.segments)
        with pytest.raises(WalError, match="disagree"):
            replay_records(
                store.index,
                [InsertRecord(1, n + 5, Segment(0, 0, 9, 9))],
                checkpoint_lsn=0,
            )
        store.close()

    def test_replay_recovers_the_live_state(self, tmp_path):
        from repro.wal.crashtest import probe_results

        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        for i in range(6):
            engine.insert_segment(
                Segment(30 + 100 * i, 40 + 90 * i, 90 + 100 * i, 80 + 90 * i)
            )
        engine.delete(2)
        live = probe_results(store.index)
        store.close()

        recovered = open_durable(root)
        assert recovered.replayed_records == 7
        # Morton-order replay answers every probe as the engine did.
        assert probe_results(recovered.index) == live
        recovered.close()

    def test_net_cancellation_skips_dead_inserts(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        sid = engine.insert_segment(Segment(511, 511, 600, 613))
        engine.delete(sid)  # insert + delete inside the same suffix
        store.close()
        recovered = open_durable(root)
        assert recovered.replayed_records == 2
        assert recovered.replay_result.inserted == 0  # net-cancelled
        assert recovered.replay_result.deleted == 0
        recovered.close()


class TestWalFsck:
    def test_clean_store_fscks_clean(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        engine.insert_segment(Segment(5, 5, 100, 100))
        engine.checkpoint()
        store.close()
        findings = check_durable(root)
        assert findings == []

    def test_unrotated_log_is_a_warning(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        engine.insert_segment(Segment(5, 5, 100, 100))
        engine.checkpoint()
        engine.insert_segment(Segment(7, 7, 90, 80))
        store.close()
        # Regress the log to a pre-rotation copy: base 0 < checkpoint 1.
        log = os.path.join(root, LOG_NAME)
        from repro.wal.log import HEADER, MAGIC

        with open(log, "r+b") as fh:
            fh.seek(0)
            fh.write(HEADER.pack(MAGIC, 0))
        findings = check_durable(root)
        fs10 = [f for f in findings if f.rule == "FS10"]
        assert fs10 and fs10[0].severity == "warning"

    def test_missing_records_is_an_error(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        store.close()
        # A log that starts beyond the checkpoint has lost records.
        from repro.wal.log import HEADER, MAGIC

        log = os.path.join(root, LOG_NAME)
        with open(log, "r+b") as fh:
            fh.write(HEADER.pack(MAGIC, 9))
        findings = check_wal(log, checkpoint_lsn=0)
        assert any(f.rule == "FS10" and f.severity == ERROR for f in findings)
        with pytest.raises(WalError, match="missing"):
            open_durable(root)

    def test_torn_tail_is_a_warning(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        engine.insert_segment(Segment(5, 5, 100, 100))
        store.close()
        log = os.path.join(root, LOG_NAME)
        with open(log, "r+b") as fh:
            fh.truncate(os.path.getsize(log) - 3)
        findings = check_wal(log)
        fs07 = [f for f in findings if f.rule == "FS07"]
        assert fs07 and fs07[0].severity == "warning"
        assert not has_errors(findings)

    def test_manifest_snapshot_lsn_mismatch(self, tmp_path):
        root = tmp_path / "store"
        store = build_store(root)
        engine = QueryEngine(store.index, store=store)
        engine.insert_segment(Segment(5, 5, 100, 100))
        engine.checkpoint()
        store.close()
        manifest_path = os.path.join(root, MANIFEST_NAME)
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)

        # Manifest newer than snapshot: the named checkpoint is missing.
        manifest["checkpoint_lsn"] = 99
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        findings = check_durable(root)
        assert any(f.rule == "FS09" and f.severity == ERROR for f in findings)

        # Snapshot newer than manifest: an interrupted checkpoint.
        manifest["checkpoint_lsn"] = 0
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        findings = check_durable(root)
        fs09 = [f for f in findings if f.rule == "FS09"]
        assert fs09 and all(f.severity == "warning" for f in fs09)

    def test_corrupt_manifest_is_diagnosed(self, tmp_path):
        root = tmp_path / "store"
        build_store(root).close()
        with open(os.path.join(root, MANIFEST_NAME), "w") as fh:
            fh.write("{not json")
        assert has_errors(check_durable(root))
        with pytest.raises(WalError, match="corrupt"):
            open_durable(root)
