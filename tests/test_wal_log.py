"""The WAL record codec and the append-only log file."""

import os
import struct
import sys
import threading

import pytest

from repro.analysis import check_wal
from repro.geometry import Segment
from repro.wal import (
    DeleteRecord,
    InsertRecord,
    WalError,
    WriteAheadLog,
    decode_record,
    encode_record,
    frame_record,
    scan_log,
)
from repro.wal.log import HEADER, MAGIC
from repro.wal.records import FRAME


class TestRecordCodec:
    def test_insert_round_trip(self):
        rec = InsertRecord(7, 42, Segment(1.0, 2.0, 30.0, 40.0))
        assert decode_record(encode_record(rec)) == rec

    def test_delete_round_trip(self):
        rec = DeleteRecord(9, 17)
        assert decode_record(encode_record(rec)) == rec

    def test_float32_precision_is_the_codec_contract(self):
        # Coordinates survive exactly when they fit float32 -- the same
        # precision the segment-table page codec stores.
        rec = InsertRecord(1, 0, Segment(0.5, 1.25, 1024.0, 3.75))
        assert decode_record(encode_record(rec)).segment == rec.segment

    def test_unknown_op_rejected(self):
        payload = bytes([99]) + encode_record(DeleteRecord(1, 0))[1:]
        with pytest.raises(WalError):
            decode_record(payload)

    def test_truncated_payload_rejected(self):
        payload = encode_record(InsertRecord(1, 0, Segment(0, 0, 1, 1)))
        with pytest.raises(WalError):
            decode_record(payload[:-3])

    def test_frame_is_length_crc_payload(self):
        rec = DeleteRecord(3, 5)
        framed = frame_record(rec)
        length, _crc = FRAME.unpack_from(framed, 0)
        assert framed[FRAME.size :] == encode_record(rec)
        assert length == len(framed) - FRAME.size


class TestWriteAheadLog:
    def test_create_append_scan(self, tmp_path):
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path)
        assert wal.log_insert(0, Segment(1, 1, 5, 5)) == 1
        assert wal.log_delete(0) == 2
        wal.close()
        scan = scan_log(path)
        assert scan.tail_error is None
        assert [r.lsn for r in scan.records] == [1, 2]
        assert isinstance(scan.records[0], InsertRecord)
        assert isinstance(scan.records[1], DeleteRecord)
        assert scan.last_lsn == 2

    def test_create_refuses_existing_file(self, tmp_path):
        path = tmp_path / "repro.wal"
        WriteAheadLog.create(path).close()
        with pytest.raises(FileExistsError):
            WriteAheadLog.create(path)

    def test_reopen_continues_lsns(self, tmp_path):
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path, base_lsn=10)
        wal.log_delete(3)
        wal.close()
        wal = WriteAheadLog.open(path, scan_log(path))
        assert wal.log_delete(4) == 12
        wal.close()
        assert [r.lsn for r in scan_log(path).records] == [11, 12]

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "repro.wal"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 8)
        with pytest.raises(WalError, match="magic"):
            scan_log(path)

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "repro.wal"
        path.write_bytes(HEADER.pack(MAGIC, 0)[: HEADER.size // 2])
        with pytest.raises(WalError, match="header"):
            scan_log(path)

    def test_torn_tail_scans_to_last_good_record(self, tmp_path):
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path)
        wal.log_insert(0, Segment(1, 1, 5, 5))
        wal.log_delete(0)
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 4)  # cut into the final record
        scan = scan_log(path)
        assert scan.tail_error is not None
        assert [r.lsn for r in scan.records] == [1]
        assert scan.torn_bytes > 0

    def test_open_repairs_torn_tail(self, tmp_path):
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path)
        wal.log_insert(0, Segment(1, 1, 5, 5))
        wal.log_delete(0)
        wal.close()
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 4)
        wal = WriteAheadLog.open(path, scan_log(path))  # repair=True truncates
        assert wal.last_lsn == 1
        wal.close()
        assert scan_log(path).tail_error is None

    def test_open_without_repair_refuses_torn_tail(self, tmp_path):
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path)
        wal.log_delete(2)
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b"\x01")  # a stray torn byte
        with pytest.raises(WalError, match="torn"):
            WriteAheadLog.open(path, scan_log(path), repair=False)

    def test_crc_mismatch_stops_scan(self, tmp_path):
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path)
        wal.log_delete(1)
        wal.log_delete(1)
        wal.close()
        scan = scan_log(path)
        with open(path, "r+b") as fh:
            fh.seek(scan.offsets[1] + FRAME.size)  # second record's payload
            fh.write(b"\xff")
        damaged = scan_log(path)
        assert damaged.tail_error == "payload CRC mismatch"
        assert [r.lsn for r in damaged.records] == [1]

    def test_lsn_gap_detected(self, tmp_path):
        path = tmp_path / "repro.wal"
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(MAGIC, 0))
            fh.write(frame_record(DeleteRecord(1, 0)))
            fh.write(frame_record(DeleteRecord(3, 0)))  # gap: 2 missing
        gaps = [(f.rule, f.page_id) for f in check_wal(path)]
        assert gaps == [("FS08", scan_log(path).offsets[1])]

    def test_implausible_length_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "repro.wal"
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(MAGIC, 0))
            fh.write(struct.pack("<II", 1 << 30, 0))
            fh.write(b"\x00" * 64)
        scan = scan_log(path)
        assert scan.records == []
        assert "implausible" in scan.tail_error


class TestGroupCommit:
    def test_every_commit_fsyncs_at_batch_one(self, tmp_path):
        """Each sync after an append fsyncs; one with nothing pending
        (and the close after it) issues none."""
        wal = WriteAheadLog.create(tmp_path / "repro.wal")
        for i in range(3):
            wal.log_delete(i)
            assert wal.sync() is True
        assert wal.fsyncs == 3
        assert wal.sync() is False
        wal.close()
        assert wal.fsyncs == 3

    def test_concurrent_committers_share_fsyncs_and_lose_nothing(self, tmp_path):
        """More committers than cores on a shortened switch interval: the
        fsync runs outside the log lock, so appends land while one is in
        flight -- yet when ``sync()`` returns its record is in the
        file, the tallies settle to zero pending, no LSN is lost, and
        committers that waited on another's fsync share it."""
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path)
        workers, each = 8, 25
        failures = []

        def committer(worker):
            for i in range(each):
                lsn = wal.log_insert(worker * each + i, Segment(0, 0, 1, 1))
                wal.sync()
                if scan_log(path).last_lsn < lsn:
                    failures.append(lsn)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=committer, args=(w,)) for w in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        stats = wal.stats()
        assert stats["pending"] == 0 and stats["log_appends"] == workers * each
        assert 0 < stats["fsyncs"] < workers * each  # waiters shared fsyncs
        wal.close()
        scan = scan_log(path)
        assert check_wal(path) == []
        assert len(scan.records) == workers * each and scan.tail_error is None


class TestRotation:
    def test_rotate_empties_log_and_rebases(self, tmp_path):
        path = tmp_path / "repro.wal"
        wal = WriteAheadLog.create(path)
        wal.log_delete(0)
        wal.log_delete(0)
        wal.rotate(2)
        assert wal.base_lsn == 2
        assert wal.log_delete(0) == 3
        wal.close()
        scan = scan_log(path)
        assert scan.base_lsn == 2
        assert [r.lsn for r in scan.records] == [3]

    def test_stats_counters(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "repro.wal")
        wal.log_insert(0, Segment(0, 0, 1, 1))
        assert wal.stats()["pending"] == 1  # appended, not yet synced
        wal.sync()
        stats = wal.stats()
        assert stats["log_appends"] == 1 and stats["fsyncs"] == 1
        assert stats["pending"] == 0
        assert stats["last_lsn"] == 1
        wal.close()
