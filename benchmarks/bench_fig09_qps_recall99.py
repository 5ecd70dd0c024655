"""Fig 9 — QPS at high recall: BlendHouse vs Milvus vs pgvector.

Paper shapes to reproduce (HNSW, recall@0.99):

* pure vector search: BlendHouse > pgvector > Milvus (leaner executors);
* hybrid "1% selectivity" (≈99% of rows pass): BlendHouse and pgvector
  pick post-filter and stay fast; Milvus pre-filters and pays;
* hybrid "99% selectivity" (≈1% pass): BlendHouse and Milvus switch to
  brute force and are fast *and* accurate, while pgvector's
  non-iterative post-filter collapses below 10% recall.

QPS is simulated; the recall target is 0.95 at repro scale (0.99 needs
deeper beams than the scaled datasets justify).
"""

import pytest

from benchmarks.common import (
    best_at_recall,
    fmt_table,
    sweep_baseline,
    sweep_blendhouse,
)
from repro.workloads.vectorbench import make_hybrid_workload

EF_SWEEP = [32, 64, 128, 256]
TARGET_RECALL = 0.95


@pytest.fixture(scope="module")
def workloads(cohere_ds):
    return {
        "vector search": make_hybrid_workload(cohere_ds, k=10),
        "hybrid 1% sel": make_hybrid_workload(cohere_ds, k=10, pass_fraction=0.99),
        "hybrid 99% sel": make_hybrid_workload(cohere_ds, k=10, pass_fraction=0.01),
    }


@pytest.fixture(scope="module")
def results(workloads, bh_cohere, milvus_cohere, pgvector_cohere):
    out = {}
    for label, workload in workloads.items():
        row = {}
        points = sweep_blendhouse(bh_cohere, workload, EF_SWEEP)
        bh_cohere.execute("SET ef_search = 64")
        best, fallback = best_at_recall(points, TARGET_RECALL)
        row["BlendHouse"] = best or fallback
        for name, system in (
            ("Milvus", milvus_cohere),
            ("pgvector", pgvector_cohere),
        ):
            points = sweep_baseline(system, workload, EF_SWEEP)
            best, fallback = best_at_recall(points, TARGET_RECALL)
            row[name] = best or fallback
        out[label] = row
    return out


def test_fig09_qps_comparison(results, workloads):
    rows = []
    for label in workloads:
        for system in ("BlendHouse", "Milvus", "pgvector"):
            point = results[label][system]
            rows.append([label, system, point.qps, point.recall])
    print(fmt_table(
        f"Fig 9: QPS at recall>={TARGET_RECALL} (simulated)",
        ["workload", "system", "QPS", "recall"],
        rows,
    ))

    # Shape 1: pure vector search — BlendHouse & pgvector beat Milvus.
    pure = results["vector search"]
    assert pure["BlendHouse"].qps > pure["Milvus"].qps
    assert pure["pgvector"].qps > pure["Milvus"].qps
    # Shape 2: BlendHouse wins every workload (paper: "performs best for
    # all workloads in VectorBench").
    for label in workloads:
        best_system = max(results[label], key=lambda s: (
            results[label][s].qps if results[label][s].recall >= TARGET_RECALL else -1
        ))
        assert results[label]["BlendHouse"].recall >= TARGET_RECALL
        assert results[label]["BlendHouse"].qps >= 0.9 * results[label][best_system].qps
    # Shape 3: pgvector's recall collapses at "99% selectivity".
    assert results["hybrid 99% sel"]["pgvector"].recall < 0.3
    assert results["hybrid 99% sel"]["BlendHouse"].recall >= TARGET_RECALL
    assert results["hybrid 99% sel"]["Milvus"].recall >= TARGET_RECALL
