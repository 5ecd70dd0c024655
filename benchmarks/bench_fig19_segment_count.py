"""Fig 19 — impact of the number of segments on performance.

Paper: under extremely high write frequency the segment count grows,
and per-worker query QPS falls as segments accumulate; background
compaction keeps the count converged in a range where QPS stays healthy.
We ingest a stream of small batches with compaction disabled, sampling
(segment count, QPS) pairs, then enable compaction and confirm both the
segment count and the QPS recover.
"""

import pytest

from benchmarks.common import BENCH_COST, fmt_table, smoke_scaled, write_results
from repro.core.database import BlendHouse
from repro.workloads.datasets import make_cohere_like
from repro.workloads.vectorbench import qps_from_latencies

BATCH_ROWS = 150
BATCHES = smoke_scaled(16, 12)
SAMPLE_EVERY = smoke_scaled(4, 3)


def vector_sql(vector):
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


@pytest.fixture(scope="module")
def stream_results():
    dataset = make_cohere_like(n=BATCH_ROWS * BATCHES, dim=32, n_queries=20, seed=9)
    db = BlendHouse(cost_model=BENCH_COST)
    db.execute(
        f"CREATE TABLE stream (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={dataset.dim}', 'M=8, ef_construction=48'))"
    )
    db.table("stream").writer.config.max_segment_rows = BATCH_ROWS

    def measure_qps():
        latencies = []
        for query in dataset.queries:
            sql = (
                f"SELECT id FROM stream ORDER BY "
                f"L2Distance(embedding, {vector_sql(query)}) LIMIT 10"
            )
            start = db.clock.now
            db.execute(sql)
            latencies.append(db.clock.now - start)
        return qps_from_latencies(latencies)

    samples = []
    for batch in range(BATCHES):
        lo, hi = batch * BATCH_ROWS, (batch + 1) * BATCH_ROWS
        db.insert_columns(
            "stream",
            {
                "id": dataset.scalars["id"][lo:hi],
                "attr": dataset.scalars["attr"][lo:hi],
            },
            dataset.vectors[lo:hi],
        )
        if (batch + 1) % SAMPLE_EVERY == 0:
            measure_qps()  # warm caches for the new segments
            samples.append((len(db.table("stream").manager), measure_qps()))

    db.compact("stream")
    measure_qps()  # warm caches post-compaction
    compacted = (len(db.table("stream").manager), measure_qps())
    return samples, compacted


def test_fig19_segment_count_vs_qps(stream_results):
    samples, compacted = stream_results
    rows = [[segments, qps, "write stream"] for segments, qps in samples]
    rows.append([compacted[0], compacted[1], "after compaction"])
    print(fmt_table(
        "Fig 19: QPS vs number of segments (simulated)",
        ["segments", "QPS", "state"],
        rows,
    ))
    metrics = {
        "compacted/segments": (compacted[0], "count"),
        "compacted/qps": (compacted[1], "1/s"),
    }
    for i, (segments, qps) in enumerate(samples):
        metrics[f"sample{i}/segments"] = (segments, "count")
        metrics[f"sample{i}/qps"] = (qps, "1/s")
    write_results("fig19_segment_count", metrics)

    counts = [segments for segments, _ in samples]
    qps = [q for _, q in samples]
    # More segments accumulate as the stream runs, and QPS declines.
    assert counts == sorted(counts) and counts[-1] > counts[0]
    assert qps[-1] < qps[0]
    # Compaction converges the segment count and recovers throughput —
    # with all rows still visible.
    assert compacted[0] < counts[-1] / 2
    assert compacted[1] > qps[-1] * 1.1
