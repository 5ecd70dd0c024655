"""Table VII — production image-search workload: latency, recall, speedup.

Paper (top-1000, 1000 queries, latency at ~0.99 recall):

================== ======= ======== ========
system              recall  latency  speedup
================== ======= ======== ========
Milvus              0.992   0.181 s  1x
Milvus-Partition    0.991   0.076 s  2.38x
ByteHouse           0.994   0.078 s  2.32x
ByteHouse-Partition 0.997   0.043 s  4.21x
pgvector            < 0.35  —        —
================== ======= ======== ========

Shapes: BlendHouse beats Milvus without partitioning; partitioning helps
both; BlendHouse-Partition is the overall winner; pgvector's recall
collapses on the multi-predicate filter.  We run a scaled trace
(multi-predicate: category + day + score) at top-50.
"""

import numpy as np
import pytest

from benchmarks.common import BENCH_COST, fmt_table
from benchmarks.conftest import HNSW_OPTIONS, HNSW_PARAMS
from repro.baselines import MilvusLike, PgVectorLike
from repro.core.database import BlendHouse
from repro.workloads.recall import ground_truth, recall_at_k
from repro.workloads.vectorbench import qps_from_latencies

K = 50
N_QUERIES = 25
# Scaled production trace: large enough that qualifying-row counts stay
# above Milvus's brute-force switch, as in the paper's 30M-row setting.
PROD_N = 12_000
PROD_DIM = 32


def vector_sql(vector):
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def _query_specs(production_ds, seed=5):
    """Per-query (category, min day, score threshold) predicates + masks.

    The day bound is weak (>= first day) so the qualifying-row count is
    governed by category x score: around 10-15% of the table, matching
    the regime where the paper's systems use their indexes rather than
    the small-result brute-force switch.
    """
    rng = np.random.default_rng(seed)
    categories = production_ds.scalars["category"]
    days = np.asarray(production_ds.scalars["day"])
    scores = np.asarray(production_ds.scalars["score"])
    cat_values = sorted(set(categories))
    cat_array = np.array(categories)
    min_day = int(days.min())
    specs, masks = [], []
    for _ in range(N_QUERIES):
        category = cat_values[int(rng.integers(len(cat_values)))]
        threshold = float(rng.uniform(0.2, 0.4))
        specs.append((category, min_day, threshold))
        masks.append((cat_array == category) & (days >= min_day) & (scores >= threshold))
    return specs, masks


@pytest.fixture(scope="module")
def production_results():
    from repro.workloads.datasets import make_production_like

    production_ds = make_production_like(n=PROD_N, dim=PROD_DIM, n_queries=N_QUERIES)
    specs, masks = _query_specs(production_ds)
    truth = ground_truth(
        production_ds.vectors, production_ds.queries[:N_QUERIES], K, masks
    )

    def run_blendhouse(partitioned: bool):
        db = BlendHouse(cost_model=BENCH_COST)
        ddl_suffix = " PARTITION BY category" if partitioned else ""
        db.execute(
            f"CREATE TABLE prod (id UInt64, category String, day Int64, "
            f"score Float64, embedding Array(Float32), "
            f"INDEX ann embedding TYPE HNSW('DIM={production_ds.dim}', "
            f"'{HNSW_OPTIONS}')){ddl_suffix}"
        )
        db.table("prod").writer.config.max_segment_rows = 1500
        db.insert_columns(
            "prod",
            {name: production_ds.scalars[name]
             for name in ("id", "category", "day", "score")},
            production_ds.vectors,
        )
        db.execute("SET ef_search = 128")
        latencies, results = [], []
        for warm in (True, False):
            latencies, results = [], []
            for qi, (category, day, threshold) in enumerate(specs):
                sql = (
                    f"SELECT id FROM prod WHERE category = '{category}' "
                    f"AND day >= {day} AND score >= {threshold:.4f} "
                    f"ORDER BY L2Distance(embedding, "
                    f"{vector_sql(production_ds.queries[qi])}) LIMIT {K}"
                )
                start = db.clock.now
                out = db.execute(sql)
                latencies.append(db.clock.now - start)
                results.append([row[0] for row in out.rows])
        return latencies, results

    def run_baseline(cls, partitioned: bool, **search_params):
        system = cls(cost=BENCH_COST)
        system.load(
            production_ds.vectors, production_ds.scalars,
            index_type="HNSW", index_params=dict(HNSW_PARAMS),
            partition_column="category" if partitioned else None,
        )
        latencies, results = [], []
        for qi, (category, _, _) in enumerate(specs):
            start = system.clock.now
            ids, _dist = system.search(
                production_ds.queries[qi], K, mask=masks[qi],
                partition_filter={category} if partitioned else None,
                mask_eval_columns=3,  # category, day, score predicates
                **search_params,
            )
            latencies.append(system.clock.now - start)
            results.append(ids.tolist())
        return latencies, results

    out = {}
    for label, runner in (
        ("Milvus", lambda: run_baseline(MilvusLike, False, ef_search=128)),
        ("Milvus-Partition", lambda: run_baseline(MilvusLike, True, ef_search=128)),
        ("BlendHouse", lambda: run_blendhouse(False)),
        ("BlendHouse-Partition", lambda: run_blendhouse(True)),
        ("pgvector", lambda: run_baseline(PgVectorLike, False, ef_search=128)),
    ):
        latencies, results = runner()
        out[label] = {
            "latency": sum(latencies) / len(latencies),
            "recall": recall_at_k(results, truth, K),
            "qps": qps_from_latencies(latencies),
        }
    return out


PAPER = {
    "Milvus": (0.99221, 0.181, 1.0),
    "Milvus-Partition": (0.99109, 0.076, 2.38),
    "BlendHouse": (0.99417, 0.078, 2.32),
    "BlendHouse-Partition": (0.99665, 0.043, 4.21),
    "pgvector": (0.35, None, None),
}


def test_table07_production_workload(production_results):
    base = production_results["Milvus"]["latency"]
    rows = []
    for label in PAPER:
        measured = production_results[label]
        paper_recall, paper_latency, paper_speedup = PAPER[label]
        rows.append([
            label,
            paper_recall,
            paper_speedup if paper_speedup else "-",
            measured["recall"],
            measured["latency"] * 1e3,
            base / measured["latency"],
        ])
    print(fmt_table(
        "Table VII: production workload (paper vs measured; latency sim ms)",
        ["system", "paper recall", "paper speedup",
         "recall", "latency (ms)", "speedup vs Milvus"],
        rows,
    ))

    r = production_results
    # Accuracy shapes.
    for label in ("Milvus", "Milvus-Partition", "BlendHouse", "BlendHouse-Partition"):
        assert r[label]["recall"] > 0.9, label
    assert r["pgvector"]["recall"] < 0.5, "pgvector must collapse on multi-predicate"
    # Speed shapes: partitioning helps both systems; BlendHouse beats
    # Milvus in like-for-like configurations; BH-Partition is the winner.
    assert r["Milvus-Partition"]["latency"] < r["Milvus"]["latency"]
    assert r["BlendHouse-Partition"]["latency"] < r["BlendHouse"]["latency"]
    assert r["BlendHouse"]["latency"] < r["Milvus"]["latency"]
    best = min(
        ("Milvus", "Milvus-Partition", "BlendHouse", "BlendHouse-Partition"),
        key=lambda label: r[label]["latency"],
    )
    assert best == "BlendHouse-Partition"
