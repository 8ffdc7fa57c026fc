"""Durability benchmark: recovery time.

The claim the WAL subsystem makes measurable: recovery time grows with
the *suffix* of the log past the checkpoint, not with database size.
Recovering a freshly checkpointed store replays exactly the
post-checkpoint records (asserted through the ``replayed_records``
counter), and the space-filling-curve bulk apply keeps a long-log
recovery queryable-correct.
"""

from __future__ import annotations

import shutil

from repro.geometry import Segment
from repro.service.engine import QueryEngine
from repro.storage import StorageContext
from repro.wal import DurableStore, open_durable
from repro.wal.crashtest import base_map, make_index

from benchmarks.conftest import write_result

N_MUTATIONS = 200


def _fresh_store(root):
    ctx = StorageContext.create()
    index = make_index("R*", ctx)
    for seg_id in ctx.load_segments(base_map()):
        index.insert(seg_id)
    return DurableStore.create(root, index)


def _mutation_stream(n=N_MUTATIONS):
    return [
        Segment(
            10 + (i * 37) % 900,
            10 + (i * 53) % 900,
            10 + (i * 37) % 900 + 40,
            10 + (i * 53) % 900 + 30,
        )
        for i in range(n)
    ]


def test_recovery_replays_only_the_suffix(benchmark, tmp_path):
    segments = _mutation_stream()

    def build(root, checkpoint_after):
        shutil.rmtree(root, ignore_errors=True)
        store = _fresh_store(root)
        engine = QueryEngine(store.index, store=store)
        for i, seg in enumerate(segments):
            engine.insert_segment(seg)
            if i + 1 == checkpoint_after:
                engine.checkpoint()
        store.close()

    long_root = tmp_path / "store-long"  # never checkpointed: full replay
    short_root = tmp_path / "store-short"  # checkpointed near the end
    build(long_root, checkpoint_after=0)
    build(short_root, checkpoint_after=N_MUTATIONS - 10)

    def run():
        out = {}
        for name, root in (("long", long_root), ("short", short_root)):
            store = open_durable(root)
            out[name] = {
                "replayed_records": store.replayed_records,
                "segments": len(store.index.ctx.segments),
            }
            store.close()
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "wal_recovery.txt",
        "\n".join(f"{k}: {v}" for k, v in out.items()),
    )
    # Same final state; wildly different recovery work.
    assert out["long"]["segments"] == out["short"]["segments"]
    assert out["long"]["replayed_records"] == N_MUTATIONS
    assert out["short"]["replayed_records"] == 10
