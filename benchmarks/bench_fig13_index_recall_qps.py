"""Fig 13 — recall vs QPS for different index types.

Paper shapes: BH-HNSW reaches the highest recall ceiling; BH-HNSWSQ
trades a little recall for lower memory at similar speed; BH-IVFPQFS is
cheapest to build but needs refinement to stay accurate and trails at
high recall.  We sweep each index's depth knob through the full engine
and print the three curves (simulated QPS).
"""

import pytest

from benchmarks.common import (
    fmt_table,
    load_blendhouse,
    measure_blendhouse,
    write_results,
)
from repro.workloads.vectorbench import SweepPoint, make_hybrid_workload

HNSW_SWEEP = [16, 32, 64, 128]
NPROBE_SWEEP = [2, 4, 8, 16]


@pytest.fixture(scope="module")
def curves(cohere_ds):
    workload = make_hybrid_workload(cohere_ds, k=10)
    out = {}
    for label, index_type, options, knob, sweep in (
        ("BH-HNSW", "HNSW", "M=8, ef_construction=64", "ef_search", HNSW_SWEEP),
        ("BH-HNSWSQ", "HNSWSQ", "M=8, ef_construction=64", "ef_search", HNSW_SWEEP),
        ("BH-IVFPQFS", "IVFPQFS", "m=8", "nprobe", NPROBE_SWEEP),
    ):
        db = load_blendhouse(cohere_ds, index_type=index_type, index_options=options)
        db.execute(workload.sql(0))  # warmup
        points = []
        for value in sweep:
            db.execute(f"SET {knob} = {value}")
            qps, recall = measure_blendhouse(db, workload)
            points.append(SweepPoint(params={knob: value}, recall=recall, qps=qps))
        out[label] = points
    return out


def test_fig13_index_type_curves(curves):
    rows = []
    for label, points in curves.items():
        for point in points:
            knob, value = next(iter(point.params.items()))
            rows.append([label, f"{knob}={value}", point.recall, point.qps])
    print(fmt_table(
        "Fig 13: recall vs QPS per index type (simulated)",
        ["index", "search param", "recall", "QPS"],
        rows,
    ))
    # Per-point recall and QPS, gated by benchmarks/check_regression.py.
    metrics = {}
    for label, points in curves.items():
        for p in points:
            knob, value = next(iter(p.params.items()))
            metrics[f"{label}/{knob}={value}/recall"] = (p.recall, "ratio")
            metrics[f"{label}/{knob}={value}/qps"] = (p.qps, "1/s")
    write_results("fig13_index_recall_qps", metrics)

    best_recall = {label: max(p.recall for p in points) for label, points in curves.items()}
    # HNSW has the highest recall ceiling; HNSWSQ is close behind;
    # IVFPQFS (with refinement) remains usable but below HNSW.
    assert best_recall["BH-HNSW"] >= 0.95
    assert best_recall["BH-HNSWSQ"] >= 0.85
    assert best_recall["BH-IVFPQFS"] >= 0.80
    assert best_recall["BH-HNSW"] >= best_recall["BH-HNSWSQ"] - 0.01
    assert best_recall["BH-HNSW"] >= best_recall["BH-IVFPQFS"] - 0.01
    # Every curve trades recall up as its knob deepens.
    for label, points in curves.items():
        recalls = [p.recall for p in points]
        assert recalls[-1] >= recalls[0] - 0.02, label
