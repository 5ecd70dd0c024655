"""Table I — feature matrix: BlendHouse's capability row, introspected.

The paper's Table I compares vector databases along seven capabilities.
This bench asserts that the reproduction actually provides every feature
the paper claims for BlendHouse and prints the row.
"""

from benchmarks.common import fmt_table
from repro.core.database import BlendHouse

PAPER_ROW = {
    "general_purpose": True,
    "disaggregated_architecture": True,
    "full_sql_support": True,
    "filtered_search": True,
    "iterative_search": True,
    "similarity_based_partition": True,
    "auto_index": True,
}


def test_table01_feature_matrix():
    features = BlendHouse.feature_matrix()
    rows = []
    for key, expected in PAPER_ROW.items():
        measured = features[key]
        rows.append([key, "yes" if expected else "no", "yes" if measured else "no"])
        assert measured == expected, f"capability {key} regressed"
    rows.append(["index_algorithms", "Pluggable (IVF, HNSW)",
                 ",".join(features["index_algorithms"])])
    print(fmt_table("Table I: BlendHouse capability row", ["capability", "paper", "repro"], rows))
    assert {"HNSW", "IVFFLAT", "IVFPQ", "HNSWSQ", "DISKANN"} <= set(
        features["index_algorithms"]
    )
