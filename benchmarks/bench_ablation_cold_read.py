"""Ablation — on-disk indexes for cold reads (the paper's future work #1).

The paper's conclusion proposes "exploring the on-disk vector index more
for better cold read performance".  This ablation quantifies the trade
at the index level, modelling the residency split directly:

* **HNSW** must be fully RAM-resident before serving: a cold worker
  fetches the whole persisted index from the object store first.
* **DISKANN** keeps only routing state in RAM (``memory_bytes`` reports
  ids + medoid); the graph and vectors stay on shared storage and are
  read per visited node during the search (charged via the index's I/O
  hook).

Cold = first query on an empty cache; warm = the same query with the
index resident.  The engine currently loads any index payload wholesale
(the conservative choice); a head/graph split of the persisted layout is
the future-work item this ablation motivates.

Beside the simulated fetch, ``load us`` records what materialising the
persisted image costs on the wall clock (median ``deserialize_index``),
so the bytes-vs-materialisation split of a cold read is on one row.
"""

import statistics
import time

import numpy as np
import pytest

from benchmarks.common import BENCH_COST, fmt_table, record
from repro.simulate.clock import SimulatedClock
from repro.vindex.registry import (
    IndexSpec,
    create_index,
    deserialize_index,
    serialize_index,
)
from repro.workloads.datasets import make_cohere_like

DIM = 64
N = 4000
LOAD_REPEATS = 51


def _median_load_us(persisted: bytes) -> float:
    samples = []
    for _ in range(LOAD_REPEATS):
        start = time.perf_counter()
        deserialize_index(persisted)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


@pytest.fixture(scope="module")
def cold_read_results():
    dataset = make_cohere_like(n=N, dim=DIM, n_queries=5, seed=17)
    vectors = dataset.vectors
    query = dataset.queries[0]
    cost = BENCH_COST
    out = {}

    for label, index_type, params, search_params in (
        ("HNSW", "HNSW", {"m": 8, "ef_construction": 64}, {"ef_search": 64}),
        ("DISKANN", "DISKANN", {"r": 16, "build_beam": 32}, {"beam": 64}),
    ):
        index = create_index(IndexSpec(index_type=index_type, dim=DIM, params=params))
        index.train(vectors)
        index.add_with_ids(vectors, np.arange(N))
        persisted = serialize_index(index)
        persisted_bytes = len(persisted)
        load_us = _median_load_us(persisted)
        resident_bytes = index.memory_bytes()

        clock = SimulatedClock()
        # Disk-resident nodes are read per beam round; DiskANN keeps
        # ~8 I/Os in flight, so the effective per-read latency is the
        # SSD latency divided by the I/O parallelism.
        index.set_io_charger(lambda nbytes: clock.advance(cost.disk_read(nbytes) / 8.0))

        # Cold: fetch whatever must be RAM-resident, then search.
        clock.advance(cost.object_store_read(resident_bytes))
        result = index.search_with_filter(query, 10, **search_params)
        clock.advance(cost.distance_cost(result.visited, DIM))
        cold = clock.now

        # Warm: the resident state is already loaded.
        clock.reset()
        result = index.search_with_filter(query, 10, **search_params)
        clock.advance(cost.distance_cost(result.visited, DIM))
        warm = clock.now

        out[label] = {
            "cold": cold,
            "warm": warm,
            "persisted_bytes": persisted_bytes,
            "load_us": load_us,
            "resident_bytes": resident_bytes,
        }
    return out


def test_ablation_cold_read(benchmark, cold_read_results):
    rows = []
    for label, values in cold_read_results.items():
        rows.append([
            label,
            values["persisted_bytes"] / 1024,
            values["load_us"],
            values["resident_bytes"] / 1024,
            values["cold"] * 1e3,
            values["warm"] * 1e3,
            values["cold"] / values["warm"],
        ])
    print(fmt_table(
        "Ablation: cold vs warm query latency by index residency",
        ["index", "persisted KiB", "load us (wall)", "RAM-resident KiB",
         "cold (sim ms)", "warm (sim ms)", "cold/warm"],
        rows,
    ))
    record(benchmark, "cold_ms", {
        label: values["cold"] * 1e3 for label, values in cold_read_results.items()
    })
    record(benchmark, "load_us", {
        label: values["load_us"] for label, values in cold_read_results.items()
    })

    hnsw = cold_read_results["HNSW"]
    diskann = cold_read_results["DISKANN"]
    # The graph index needs orders of magnitude more resident state...
    assert hnsw["resident_bytes"] > 20 * diskann["resident_bytes"]
    # ...so its cold start is far more expensive.
    assert hnsw["cold"] > 2 * diskann["cold"]
    # The flip side the paper accepts: disk-resident search is slower
    # when warm (per-node reads on the search path).
    assert diskann["warm"] > hnsw["warm"]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
