"""Parallel segment fan-out and batched multi-query execution.

Two claims, both asserted on *simulated* latency (the wall clock is
recorded beside it for the batch table, and only loosely gated):

* **Fan-out**: an 8-segment ANN scan on 8 simulated cores finishes at
  the per-segment makespan, not the per-segment sum — at least 2x
  faster than serial execution, with byte-identical results.
* **Batching**: submitting ``nq = 32`` brute-force queries as one batch
  computes one ``(nq, n)`` distance kernel (GEMM) instead of 32
  sequential ``(1, n)`` scans, and the amortized plan + kernel cost
  beats 32 separate submissions.  The same three submissions (a loop
  of ``execute``, ``execute_batch``, ``search_batch``) are recorded on
  both clocks for FLAT, IVFFLAT and HNSW — a batch is a group through
  the one SELECT lifecycle, and the batched segment kernel it selects
  has to earn its place on the clock the Python runs on too.
"""

from time import perf_counter

import numpy as np
import pytest

from benchmarks.common import (
    BENCH_COST,
    fmt_table,
    measure_batch_latency,
    measure_serial_latency,
    record,
    smoke_scaled,
    write_bench_json,
)
from repro.core.database import BlendHouse
from repro.workloads.datasets import make_cohere_like

SEGMENTS = 8
ROWS_PER_SEGMENT = smoke_scaled(600, 300)
DIM = 32
N_QUERIES = smoke_scaled(16, 8)
BATCH_NQ = 32
K = 10


def vector_sql(vector):
    return "[" + ",".join(repr(float(x)) for x in vector) + "]"


def build_db(index_type: str, workers: int) -> BlendHouse:
    dataset = make_cohere_like(
        n=SEGMENTS * ROWS_PER_SEGMENT, dim=DIM, n_queries=max(N_QUERIES, BATCH_NQ), seed=7
    )
    db = BlendHouse(cost_model=BENCH_COST)
    options = f"'DIM={DIM}'"
    db.execute(
        f"CREATE TABLE bench (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE {index_type}({options}))"
    )
    db.table("bench").writer.config.max_segment_rows = ROWS_PER_SEGMENT
    db.insert_columns(
        "bench",
        {"id": dataset.scalars["id"], "attr": dataset.scalars["attr"]},
        dataset.vectors,
    )
    if workers > 1:
        db.execute(f"SET parallel_workers = {workers}")
    db._bench_queries = dataset.queries
    return db


def knn_sql(query) -> str:
    return (
        f"SELECT id, dist FROM bench ORDER BY "
        f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {K}"
    )


@pytest.fixture(scope="module")
def fanout_results():
    """Warm-cache serial vs parallel latency on the same workload."""
    rows = []
    results_by_workers = {}
    for workers in (1, 8):
        db = build_db("HNSW", workers)
        queries = db._bench_queries[:N_QUERIES]
        sqls = [knn_sql(q) for q in queries]
        measure_serial_latency(db, sqls)  # warm plan/column/index caches
        # Execution-only latency: planning cost is identical for both
        # pool sizes, and the claim under test is about the scan.
        total, ids = measure_serial_latency(db, sqls, include_planning=False)
        rows.append([workers, total, total / len(sqls)])
        results_by_workers[workers] = (total, ids)
    return rows, results_by_workers


def test_parallel_fanout_speedup(benchmark, fanout_results):
    rows, by_workers = fanout_results
    print(fmt_table(
        "Parallel fan-out: 8 segments, serial vs 8 lanes (simulated)",
        ["workers", "total_s", "per_query_s"],
        rows,
    ))
    serial_total, serial_ids = by_workers[1]
    parallel_total, parallel_ids = by_workers[8]
    record(benchmark, "serial_s", serial_total)
    record(benchmark, "parallel_s", parallel_total)
    speedup = serial_total / parallel_total
    record(benchmark, "speedup", speedup)
    write_bench_json("parallel_fanout", {
        "serial_s": serial_total,
        "parallel_s": parallel_total,
        "speedup": speedup,
    })

    # Same top-k rows regardless of the pool size...
    assert parallel_ids == serial_ids
    # ...and the 8-lane makespan is at least 2x better than the serial sum.
    assert speedup >= 2.0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


BATCH_INDEX_TYPES = ("FLAT", "IVFFLAT", "HNSW")
WALL_REPEATS = 3


def on_both_clocks(db, measure):
    """``measure()`` → (simulated seconds, ids), run ``WALL_REPEATS``
    times: the first run's simulated total and ids (what the
    assertions have always read) and the best wall-clock ms."""
    first, wall_ms = None, float("inf")
    for _ in range(WALL_REPEATS):
        start = perf_counter()
        measured = measure()
        wall_ms = min(wall_ms, (perf_counter() - start) * 1e3)
        first = first or measured
    return {"sim_s": first[0], "wall_ms": wall_ms, "ids": first[1]}


def measure_api_batch(db, queries):
    """One query matrix: one plan for the batch, rebinds are free."""
    start = db.clock.now
    batch = db.search_batch("bench", np.stack(list(queries)), k=K)
    total = db.clock.now - start
    return total, [[row[0] for row in result.rows] for result in batch.results]


@pytest.fixture(scope="module")
def batch_results():
    """nq=32 kNN queries per index type: a loop of ``execute`` vs one
    ``execute_batch`` vs one ``search_batch``, on both clocks."""
    by_index = {}
    for index_type in BATCH_INDEX_TYPES:
        db = build_db(index_type, 1)
        queries = db._bench_queries[:BATCH_NQ]
        sqls = [knn_sql(q) for q in queries]
        measure_serial_latency(db, sqls[:2])  # warm caches
        by_index[index_type] = {
            "loop": on_both_clocks(db, lambda: measure_serial_latency(db, sqls)),
            "execute_batch": on_both_clocks(
                db, lambda: measure_batch_latency(db, sqls)
            ),
            "search_batch": on_both_clocks(
                db, lambda: measure_api_batch(db, queries)
            ),
        }
    return by_index


def test_batched_queries_beat_sequential(benchmark, batch_results):
    flat = batch_results["FLAT"]
    sequential_total, sequential_ids = flat["loop"]["sim_s"], flat["loop"]["ids"]
    batch_total, batch_ids = flat["execute_batch"]["sim_s"], flat["execute_batch"]["ids"]
    api_total, api_ids = flat["search_batch"]["sim_s"], flat["search_batch"]["ids"]
    print(fmt_table(
        f"Batched nq={BATCH_NQ} kNN vs a loop of execute: simulated ms | wall ms",
        ["index", "loop sim", "execute_batch sim", "search_batch sim",
         "loop wall", "execute_batch wall", "search_batch wall"],
        [
            [index_type]
            + [modes[mode]["sim_s"] * 1e3 for mode in modes]
            + [modes[mode]["wall_ms"] for mode in modes]
            for index_type, modes in batch_results.items()
        ],
    ))
    record(benchmark, "sequential_s", sequential_total)
    record(benchmark, "batch_s", batch_total)
    record(benchmark, "api_batch_s", api_total)
    speedup = sequential_total / batch_total
    record(benchmark, "speedup", speedup)
    write_bench_json("batched_queries", {
        "sequential_s": sequential_total,
        "batch_s": batch_total,
        "api_batch_s": api_total,
        "speedup": speedup,
        # Both clocks, every index type: simulated seconds of the first
        # run, best wall-clock ms of WALL_REPEATS.
        "by_index": {
            index_type: {
                mode: {"sim_s": run["sim_s"], "wall_ms": run["wall_ms"]}
                for mode, run in modes.items()
            }
            for index_type, modes in batch_results.items()
        },
    })

    # The batch returns the same neighbors per query...
    assert batch_ids == sequential_ids
    assert api_ids == sequential_ids
    # ...in strictly less simulated time than 32 separate submissions,
    # whether submitted as 32 SQL statements or one query matrix.
    assert batch_total < sequential_total
    assert api_total < batch_total
    for modes in batch_results.values():
        assert modes["execute_batch"]["ids"] == modes["loop"]["ids"]
        assert modes["search_batch"]["ids"] == modes["loop"]["ids"]
    # The one wall-clock gate: the (nq, n) kernel is not slower than the
    # loop it replaces where it is a single GEMM per segment.
    assert flat["execute_batch"]["wall_ms"] <= flat["loop"]["wall_ms"]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
