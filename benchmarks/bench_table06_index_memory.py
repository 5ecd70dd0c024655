"""Table VI — memory consumption of different index types.

Paper (GB, production dataset): BH-HNSW 596.0, BH-HNSWSQ 238.4
(≈ 0.4x), BH-IVFPQFS 91.2 (≈ 0.15x).  Shape: full-precision HNSW is the
largest; SQ8 cuts it roughly to the quantized-vector fraction; 4-bit PQ
codes are by far the smallest.  Measured sizes come from each index's
``memory_bytes`` accounting on the production-like dataset.
"""

import numpy as np
import pytest

from benchmarks.common import fmt_table
from repro.vindex.registry import IndexSpec, create_index

PAPER_GB = {"BH-HNSW": 596.0, "BH-HNSWSQ": 238.4, "BH-IVFPQFS": 91.2}
SPECS = {
    "BH-HNSW": ("HNSW", {"m": 8, "ef_construction": 64}),
    "BH-HNSWSQ": ("HNSWSQ", {"m": 8, "ef_construction": 64}),
    "BH-IVFPQFS": ("IVFPQFS", {"m": 8}),
}


@pytest.fixture(scope="module")
def memory(production_ds):
    vectors = production_ds.vectors
    ids = np.arange(vectors.shape[0])
    out = {}
    for label, (index_type, params) in SPECS.items():
        index = create_index(
            IndexSpec(index_type=index_type, dim=production_ds.dim, params=params)
        )
        index.train(vectors)
        index.add_with_ids(vectors, ids)
        out[label] = index.memory_bytes()
    return out


def test_table06_index_memory(memory):
    hnsw = memory["BH-HNSW"]
    rows = []
    for label in SPECS:
        rows.append([
            label,
            PAPER_GB[label],
            PAPER_GB[label] / PAPER_GB["BH-HNSW"],
            memory[label] / (1 << 20),
            memory[label] / hnsw,
        ])
    print(fmt_table(
        "Table VI: index memory (paper GB vs measured MiB)",
        ["index", "paper (GB)", "paper (x HNSW)", "measured (MiB)", "measured (x HNSW)"],
        rows,
    ))
    assert memory["BH-HNSW"] > memory["BH-HNSWSQ"] > memory["BH-IVFPQFS"]
    # Rough factor match: SQ should land near the paper's 0.4x, PQ well
    # below it.
    assert memory["BH-HNSWSQ"] / hnsw < 0.75
    assert memory["BH-IVFPQFS"] / hnsw < 0.35
