"""Fig 14 — the impact of updates and compaction on performance.

Paper: with compaction disabled, vector search QPS degrades as the
number of updated rows grows (queries combine the latest values through
delete bitmaps and extra version segments); enabling compaction cleans
the dead rows and restores QPS to normal.  We update growing row counts
and measure QPS before updates, after updates, and after compaction.
"""

import pytest

from benchmarks.common import (
    fmt_table,
    load_blendhouse,
    measure_blendhouse,
)
from benchmarks.conftest import HNSW_OPTIONS
from repro.workloads.vectorbench import make_hybrid_workload

UPDATE_COUNTS = [100, 400, 800]


@pytest.fixture(scope="module")
def results(cohere_ds):
    workload = make_hybrid_workload(cohere_ds, k=10)
    out = {"baseline": None, "after_update": {}, "after_compaction": {}}

    db = load_blendhouse(cohere_ds, index_type="HNSW", index_options=HNSW_OPTIONS)
    db.execute(workload.sql(0))  # warmup
    out["baseline"], _ = measure_blendhouse(db, workload)

    updated_so_far = 0
    for count in UPDATE_COUNTS:
        # Update rows [updated_so_far, count): compaction disabled.
        db.execute(
            f"UPDATE bench SET attr = attr + 0 "
            f"WHERE id >= {updated_so_far} AND id < {count}"
        )
        updated_so_far = count
        qps, recall = measure_blendhouse(db, workload)
        out["after_update"][count] = (qps, recall,
                                      db.table("bench").manager.deleted_rows(),
                                      len(db.table("bench").manager))
    # Now compact and re-measure.
    db.compact("bench")
    db.execute(workload.sql(0))  # re-warm caches for the new segments
    qps, recall = measure_blendhouse(db, workload)
    out["after_compaction"] = (qps, recall,
                               db.table("bench").manager.deleted_rows(),
                               len(db.table("bench").manager))
    return out


def test_fig14_update_and_compaction(results):
    rows = [["baseline (no updates)", results["baseline"], "-", "-", "-"]]
    for count in UPDATE_COUNTS:
        qps, recall, dead, segments = results["after_update"][count]
        rows.append([f"after {count} updated rows", qps, recall, dead, segments])
    qps, recall, dead, segments = results["after_compaction"]
    rows.append(["after compaction", qps, recall, dead, segments])
    print(fmt_table(
        "Fig 14: update overhead and compaction recovery (simulated QPS)",
        ["state", "QPS", "recall", "dead rows", "segments"],
        rows,
    ))

    # Shapes: QPS decreases as updates accumulate; compaction restores it.
    degraded = [results["after_update"][c][0] for c in UPDATE_COUNTS]
    assert all(degraded[i] >= degraded[i + 1] for i in range(len(degraded) - 1)), (
        "more updated rows must hurt QPS monotonically"
    )
    assert degraded[-1] < 0.9 * results["baseline"]
    assert results["after_compaction"][0] > 1.2 * degraded[-1]
    assert results["after_compaction"][2] == 0, "compaction must drop dead rows"
    # Correctness is never sacrificed while degraded.
    assert all(results["after_update"][c][1] > 0.9 for c in UPDATE_COUNTS)
