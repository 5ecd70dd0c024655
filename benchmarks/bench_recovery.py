"""Cold-restart recovery time vs WAL tail length and checkpoint recency.

Durability's operational question: how long does a replacement node take
to come back, and how much of that is governed by how recently the
engine checkpointed?  Recovery = load checkpoint (manifest + cold
segment reads) + replay the WAL tail (cold-read every segment committed
since).  Sweeping the checkpoint position through a fixed ingest history
shows recovery time growing with the tail and the checkpoint itself
amortizing it — the reason the WAL-bytes trigger exists.

Simulated seconds throughout (the engine charges every object-store read
and WAL operation to its clock).  Writes ``benchmarks/results/recovery.json``.
"""

import numpy as np
import pytest

from benchmarks.common import (
    BENCH_COST,
    fmt_table,
    smoke_scaled,
    write_results,
)
from repro.core.database import BlendHouse

DIM = 16


def _build_history(n_batches, rows_per_batch, checkpoint_after):
    """One engine that ingested ``n_batches`` and checkpointed midway."""
    rng = np.random.default_rng(42)
    db = BlendHouse(cost_model=BENCH_COST)
    db.execute(
        "CREATE TABLE bench (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
    )
    next_id = 0
    for batch in range(n_batches):
        rows = [
            {"id": next_id + i, "attr": int(rng.integers(0, 100)),
             "embedding": rng.normal(size=DIM).astype(np.float32)}
            for i in range(rows_per_batch)
        ]
        next_id += rows_per_batch
        db.insert_rows("bench", rows)
        if batch + 1 == checkpoint_after:
            db.execute("CHECKPOINT")
        if batch % 3 == 2:
            db.execute(f"DELETE FROM bench WHERE id = {next_id - 5}")
    return db


@pytest.fixture(scope="module")
def recovery_results():
    n_batches = smoke_scaled(12, 6)
    rows_per_batch = smoke_scaled(200, 80)
    points = []
    for checkpoint_after in (0, n_batches // 4, n_batches // 2, n_batches):
        db = _build_history(n_batches, rows_per_batch, checkpoint_after)
        status = db.durability_status()
        recovered = db.restart()
        report = recovered.last_recovery
        points.append({
            "checkpoint_after_batch": checkpoint_after,
            "wal_tail_records": report.replayed_records,
            "wal_lsn_at_crash": status["last_flushed_lsn"],
            "checkpoint_lsn": report.checkpoint_lsn,
            "segments_loaded": report.segments_loaded,
            "recovery_sim_s": report.simulated_seconds,
        })
        # Sanity: the recovered engine answers queries.
        assert recovered.describe("bench")["rows_alive"] > 0
    return {"n_batches": n_batches, "rows_per_batch": rows_per_batch,
            "points": points}


def test_recovery_vs_checkpoint_recency(recovery_results):
    points = recovery_results["points"]
    rows = [
        [p["checkpoint_after_batch"], p["checkpoint_lsn"],
         p["wal_tail_records"], p["segments_loaded"],
         p["recovery_sim_s"] * 1e3]
        for p in points
    ]
    print(fmt_table(
        "Cold-restart recovery vs checkpoint recency "
        f"({recovery_results['n_batches']} batches x "
        f"{recovery_results['rows_per_batch']} rows)",
        ["ckpt after batch", "ckpt lsn", "replayed records",
         "segments loaded", "recovery (sim ms)"],
        rows,
    ))
    metrics = {
        "n_batches": (recovery_results["n_batches"], "count"),
        "rows_per_batch": (recovery_results["rows_per_batch"], "count"),
    }
    for p in points:
        for key, unit in (("wal_tail_records", "count"), ("wal_lsn_at_crash", "lsn"),
                          ("checkpoint_lsn", "lsn"), ("segments_loaded", "count"),
                          ("recovery_sim_s", "s")):
            metrics[f"ckpt_after_{p['checkpoint_after_batch']}/{key}"] = (p[key], unit)
    write_results("recovery", metrics)

    by_ckpt = {p["checkpoint_after_batch"]: p for p in points}
    never = by_ckpt[0]
    fresh = by_ckpt[recovery_results["n_batches"]]
    # A longer surviving WAL tail means more replay work...
    assert never["wal_tail_records"] > fresh["wal_tail_records"]
    # ...and a just-taken checkpoint gives the fastest restart.
    assert fresh["recovery_sim_s"] <= min(
        p["recovery_sim_s"] for p in points
    ) * 1.001
    # Recovery time decreases monotonically with checkpoint recency.
    ordered = sorted(points, key=lambda p: p["checkpoint_after_batch"])
    times = [p["recovery_sim_s"] for p in ordered]
    assert all(a >= b * 0.999 for a, b in zip(times, times[1:]))
