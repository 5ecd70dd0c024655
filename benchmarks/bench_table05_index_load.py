"""Table V — load time of different index types.

Paper (seconds, Cohere / OpenAI): BH-HNSW 559.1 / 5397.8,
BH-HNSWSQ 351.6 / 3484.0, BH-IVFPQFS 264.9 / 3046.9.  Shape: HNSW is
the slowest build, HNSWSQ ≈ 0.65x of it, IVFPQFS the fastest.
Measured times are simulated end-to-end ingests through the pipelined
write path with identical data.
"""

import pytest

from benchmarks.common import BENCH_COST, fmt_table
from repro.core.database import BlendHouse

PAPER = {
    "cohere": {"BH-HNSW": 559.1, "BH-HNSWSQ": 351.6, "BH-IVFPQFS": 264.9},
    "openai": {"BH-HNSW": 5397.8, "BH-HNSWSQ": 3484.0, "BH-IVFPQFS": 3046.9},
}
INDEX_DDL = {
    "BH-HNSW": ("HNSW", "M=8, ef_construction=64"),
    "BH-HNSWSQ": ("HNSWSQ", "M=8, ef_construction=64"),
    "BH-IVFPQFS": ("IVFPQFS", "m=8"),
}


def _load_time(dataset, index_type, options):
    db = BlendHouse(cost_model=BENCH_COST)
    db.execute(
        f"CREATE TABLE bench (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE {index_type}('DIM={dataset.dim}', '{options}'))"
    )
    db.table("bench").writer.config.max_segment_rows = 1000
    report = db.insert_columns(
        "bench",
        {"id": dataset.scalars["id"], "attr": dataset.scalars["attr"]},
        dataset.vectors,
    )
    return report.simulated_seconds


@pytest.fixture(scope="module")
def load_times(cohere_ds, openai_ds):
    out = {}
    for name, dataset in (("cohere", cohere_ds), ("openai", openai_ds)):
        out[name] = {
            label: _load_time(dataset, index_type, options)
            for label, (index_type, options) in INDEX_DDL.items()
        }
    return out


def test_table05_index_load_time(load_times):
    rows = []
    for dataset in ("cohere", "openai"):
        for label in INDEX_DDL:
            rows.append([
                dataset, label, PAPER[dataset][label], load_times[dataset][label],
            ])
    print(fmt_table(
        "Table V: load time per index type (paper s vs simulated s)",
        ["dataset", "index", "paper (s)", "measured (sim s)"],
        rows,
    ))
    for dataset in ("cohere", "openai"):
        measured = load_times[dataset]
        assert measured["BH-HNSW"] > measured["BH-HNSWSQ"] > measured["BH-IVFPQFS"], (
            f"{dataset}: index build-time ordering must match the paper"
        )
