"""Fig 15 — QPS with the cost-based optimizer on vs off.

Paper: for hybrid queries at "1% selectivity" (≈99% of rows pass the
filter), the CBO picks the cheaper post-filter strategy; with CBO
disabled the engine defaults to pre-filter and loses throughput.
"""

import pytest

from benchmarks.common import fmt_table, measure_blendhouse, record
from repro.planner.optimizer import ExecutionStrategy
from repro.workloads.vectorbench import make_hybrid_workload


@pytest.fixture(scope="module")
def workload(cohere_ds):
    return make_hybrid_workload(cohere_ds, k=10, pass_fraction=0.99)


def test_fig15_cbo_on_off(benchmark, reset_settings, workload):
    db = reset_settings
    db.execute(workload.sql(0))  # warmup

    db.execute("SET enable_cbo = 1")
    strategy_on = db.execute("EXPLAIN " + workload.sql(1)).plan.strategy
    qps_on, recall_on = measure_blendhouse(db, workload)

    db.execute("SET enable_cbo = 0")
    strategy_off = db.execute("EXPLAIN " + workload.sql(1)).plan.strategy
    qps_off, recall_off = measure_blendhouse(db, workload)
    db.execute("SET enable_cbo = 1")

    rows = [
        ["CBO enabled", strategy_on.value, qps_on, recall_on],
        ["CBO disabled", strategy_off.value, qps_off, recall_off],
    ]
    print(fmt_table(
        "Fig 15: hybrid '1% selectivity' QPS with/without CBO (simulated)",
        ["setting", "chosen strategy", "QPS", "recall"],
        rows,
    ))
    record(benchmark, "qps", {"cbo_on": qps_on, "cbo_off": qps_off})

    assert strategy_on is ExecutionStrategy.POST_FILTER
    assert strategy_off is ExecutionStrategy.PRE_FILTER
    assert qps_on > qps_off, "CBO's strategy choice must pay off"
    assert recall_on > 0.9 and recall_off > 0.9

    benchmark(lambda: db.execute(workload.sql(0)))
