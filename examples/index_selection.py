"""Choosing a vector index: the pluggable library and auto-index.

The paper's §III recommends indexes by workload: HNSW for accuracy,
HNSWSQ for efficiency under memory pressure, IVFPQFS for write-heavy
cost-constrained tables; and shows (Fig 7) that IVF's K_IVF parameter
must track segment size, which BlendHouse's auto-index does at build
time.  This example measures all of that directly through the pluggable
index API — no engine required.

Run:  python examples/index_selection.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import IndexSpec, create_index, registered_types
from repro.vindex.autoindex import select_ivf_nlist, select_nprobe
from repro.workloads.recall import ground_truth, recall_at_k

DIM = 48
N = 4000
K = 10


def clustered_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    centers = rng.normal(size=(16, DIM)).astype(np.float32)
    vectors = centers[rng.integers(0, 16, size=n)] + rng.normal(
        scale=0.3, size=(n, DIM)
    ).astype(np.float32)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def main() -> None:
    rng = np.random.default_rng(3)
    vectors = clustered_vectors(N, rng)
    queries = vectors[rng.choice(N, 25, replace=False)] + rng.normal(
        scale=0.02, size=(25, DIM)
    ).astype(np.float32)
    truth = ground_truth(vectors, queries, K)

    print("registered index types:", ", ".join(registered_types()))

    # ------------------------------------------------------------------
    # 1. Build each index type over the same data; compare build time,
    #    memory, search speed, and recall.
    # ------------------------------------------------------------------
    configs = {
        "HNSW": ({"m": 8, "ef_construction": 64}, {"ef_search": 64}),
        "HNSWSQ": ({"m": 8, "ef_construction": 64}, {"ef_search": 64}),
        "IVFFLAT": ({"nlist": select_ivf_nlist(N)}, {"nprobe": 12}),
        "IVFPQFS": ({"nlist": 64, "m": 8}, {"nprobe": 12}),
        "DISKANN": ({"r": 16, "build_beam": 32}, {"beam": 64}),
    }
    header = f"{'index':10s} {'build s':>8s} {'memory KiB':>11s} {'ms/query':>9s} {'recall@10':>10s}"
    print("\n" + header)
    print("-" * len(header))
    for name, (build_params, search_params) in configs.items():
        index = create_index(IndexSpec(index_type=name, dim=DIM, params=build_params))
        start = time.perf_counter()
        index.train(vectors)
        index.add_with_ids(vectors, np.arange(N))
        build_seconds = time.perf_counter() - start
        index.set_refiner(lambda ids: vectors[np.asarray(ids)])

        start = time.perf_counter()
        results = [
            index.search_with_filter(q, K, **search_params).ids.tolist()
            for q in queries
        ]
        per_query_ms = (time.perf_counter() - start) / len(queries) * 1e3
        recall = recall_at_k(results, truth, K)
        print(f"{name:10s} {build_seconds:8.2f} {index.memory_bytes() / 1024:11.0f} "
              f"{per_query_ms:9.3f} {recall:10.3f}")

    # ------------------------------------------------------------------
    # 2. Auto-index: K_IVF must grow like sqrt(N) (paper Fig 7).
    # ------------------------------------------------------------------
    print("\nauto-selected K_IVF by segment size:")
    for n_rows in (500, 2_000, 10_000, 100_000, 1_000_000):
        nlist = select_ivf_nlist(n_rows)
        print(f"  N={n_rows:>9,d}  ->  K_IVF={nlist:>5d}  "
              f"(nprobe ~ {select_nprobe(nlist)})")

    # ------------------------------------------------------------------
    # 3. Filtered search through the uniform interface: the same bitset
    #    API works for every index type (the pre-filter strategy's
    #    generality claim).
    # ------------------------------------------------------------------
    bitset = np.zeros(N, dtype=bool)
    bitset[::3] = True
    print("\nfiltered search (one-third of rows admissible):")
    for name in ("HNSW", "IVFFLAT"):
        build_params, search_params = configs[name]
        index = create_index(IndexSpec(index_type=name, dim=DIM, params=build_params))
        index.train(vectors)
        index.add_with_ids(vectors, np.arange(N))
        result = index.search_with_filter(queries[0], K, bitset=bitset, **search_params)
        assert all(i % 3 == 0 for i in result.ids.tolist())
        print(f"  {name:8s} -> top-{K} all satisfy the filter "
              f"(visited {result.visited} candidates)")


if __name__ == "__main__":
    main()
