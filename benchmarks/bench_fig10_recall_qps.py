"""Fig 10 — recall-vs-QPS trade-off curves for the three systems.

The paper sweeps search depth and plots recall against QPS; BlendHouse's
curve dominates (higher QPS at nearly every recall level).  We sweep
``ef_search`` on the shared Cohere-like world and print the three
series; the shape assertions are (a) every curve trades QPS for recall
monotonically in ef, and (b) BlendHouse dominates at the high-recall
end.
"""

import pytest

from benchmarks.common import fmt_table, sweep_baseline, sweep_blendhouse
from repro.workloads.vectorbench import make_hybrid_workload

EF_SWEEP = [16, 32, 64, 128, 256]


@pytest.fixture(scope="module")
def curves(cohere_ds, bh_cohere, milvus_cohere, pgvector_cohere):
    workload = make_hybrid_workload(cohere_ds, k=10)
    out = {"BlendHouse": sweep_blendhouse(bh_cohere, workload, EF_SWEEP)}
    bh_cohere.execute("SET ef_search = 64")
    out["Milvus"] = sweep_baseline(milvus_cohere, workload, EF_SWEEP)
    out["pgvector"] = sweep_baseline(pgvector_cohere, workload, EF_SWEEP)
    return out


def test_fig10_recall_vs_qps(curves):
    rows = []
    for system, points in curves.items():
        for point in points:
            rows.append([system, point.params["ef_search"], point.recall, point.qps])
    print(fmt_table(
        "Fig 10: recall vs QPS (ef_search sweep, simulated QPS)",
        ["system", "ef_search", "recall", "QPS"],
        rows,
    ))

    for system, points in curves.items():
        recalls = [p.recall for p in points]
        qps = [p.qps for p in points]
        # Recall non-decreasing in ef; QPS non-increasing (small jitter
        # tolerated: deeper beams cost more).
        assert all(
            recalls[i] <= recalls[i + 1] + 0.02 for i in range(len(points) - 1)
        ), system
        assert qps[0] >= qps[-1], system

    # BlendHouse dominates at the deep-search end of the curve.
    def qps_at_max_ef(system):
        return curves[system][-1].qps

    assert qps_at_max_ef("BlendHouse") > qps_at_max_ef("Milvus")
    assert qps_at_max_ef("BlendHouse") > qps_at_max_ef("pgvector")
