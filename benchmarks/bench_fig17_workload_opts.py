"""Fig 17 — performance breakdown of the workload-aware optimizations.

Paper: on a repetitive hybrid workload, READ_Opt (adaptive column
caching + reduced read granularity) improves QPS by 124.2% over the
baseline, and READ_Opt + Query_Opt (plan caching + short-circuit
planning) reaches +206.5% total.

Our configurations:

* baseline      — full-block remote column reads, full planning per query
* READ_Opt      — ranged reads + adaptive split-buffer cache
* +Query_Opt    — plus the parameterized plan cache / short circuit
"""

import pytest

from benchmarks.common import fmt_table, measure_blendhouse
from repro.workloads.vectorbench import make_hybrid_workload

# Paper: "+124.2%" and "+206.5%" QPS over the baseline.
PAPER_GAINS = {"READ_Opt": 2.242, "READ_Opt+Query_Opt": 3.065}


@pytest.fixture(scope="module")
def workload(cohere_ds):
    # Project scalar columns so column I/O is actually on the read path.
    wl = make_hybrid_workload(cohere_ds, k=10, pass_fraction=0.99)
    original_sql = wl.sql

    def sql_with_columns(qi, table="bench"):
        return original_sql(qi, table).replace(
            "SELECT id, dist FROM", "SELECT id, attr, dist FROM"
        )

    wl.sql = sql_with_columns
    return wl


def test_fig17_workload_aware_opts(reset_settings, workload):
    db = reset_settings
    results = {}

    db.execute("SET read_opt = 0")
    db.execute("SET enable_plan_cache = 0")
    db.execute("SET enable_short_circuit = 0")
    results["baseline"], _ = measure_blendhouse(db, workload)

    db.execute("SET read_opt = 1")
    db.execute(workload.sql(0))  # warm the column cache
    results["READ_Opt"], _ = measure_blendhouse(db, workload)

    db.execute("SET enable_plan_cache = 1")
    db.execute("SET enable_short_circuit = 1")
    db.execute(workload.sql(0))  # warm the plan cache
    results["READ_Opt+Query_Opt"], _ = measure_blendhouse(db, workload)

    baseline = results["baseline"]
    rows = []
    for label in ("baseline", "READ_Opt", "READ_Opt+Query_Opt"):
        gain = results[label] / baseline
        paper_gain = PAPER_GAINS.get(label, 1.0)
        rows.append([label, results[label], f"{(gain - 1) * 100:.0f}%",
                     f"{(paper_gain - 1) * 100:.0f}%"])
    print(fmt_table(
        "Fig 17: workload-aware optimization breakdown (simulated QPS)",
        ["configuration", "QPS", "measured gain", "paper gain"],
        rows,
    ))

    # Shapes: each optimization layer adds meaningful throughput.
    assert results["READ_Opt"] > 1.3 * baseline, (
        "read optimizations must deliver a large gain"
    )
    assert results["READ_Opt+Query_Opt"] > 1.15 * results["READ_Opt"], (
        "plan-level optimizations must add on top"
    )
