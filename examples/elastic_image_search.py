"""Elastic image search on a virtual-warehouse cluster.

Reproduces the paper's cloud-native story end to end: a read warehouse
of stateless workers serves an image-search workload while we

* scale from 2 to 6 workers and watch QPS rise immediately (vector
  search serving bridges the new workers' cold caches — no
  load-before-serve stall),
* crash a worker and observe queries retried transparently on the
  surviving topology,
* inspect which cache tier (local / serving / brute) answered each scan.

Run:  python examples/elastic_image_search.py
"""

from __future__ import annotations

import numpy as np

from repro import ClusteredBlendHouse
from repro.workloads.datasets import make_production_like

DIM = 32
K = 10


def vector_literal(vector: np.ndarray) -> str:
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def tier_counts(cluster) -> dict:
    return {
        tier: cluster.metrics.count(f"warehouse.tier.{tier}")
        for tier in ("local", "disk", "serving", "brute")
    }


def run_queries(cluster, dataset, n=30) -> float:
    start = cluster.clock.now
    for i in range(n):
        query = dataset.queries[i % len(dataset.queries)]
        category = dataset.scalars["category"][i % 6]
        cluster.execute(
            f"SELECT id, dist FROM photos WHERE category = '{category}' "
            f"ORDER BY L2Distance(embedding, {vector_literal(query)}) AS dist "
            f"LIMIT {K}"
        )
    return n / (cluster.clock.now - start)


def main() -> None:
    dataset = make_production_like(n=6000, dim=DIM, n_queries=40)
    cluster = ClusteredBlendHouse(read_workers=2)
    cluster.execute(
        f"""
        CREATE TABLE photos (
          id UInt64, category String, source String, day Int64, score Float64,
          embedding Array(Float32),
          INDEX ann embedding TYPE IVFFLAT('DIM={DIM}')
        )
        """
    )
    cluster.table("photos").writer.config.max_segment_rows = 600
    cluster.insert_columns(
        "photos",
        {name: dataset.scalars[name]
         for name in ("id", "category", "source", "day", "score")},
        dataset.vectors,
    )
    segments = len(cluster.table("photos").manager)
    print(f"loaded {dataset.n} photos into {segments} segments "
          f"on a {cluster.read_vw.worker_count}-worker read warehouse")

    # ------------------------------------------------------------------
    # 1. Cache-aware preload (paper §II-D): pull every segment's index
    #    into the worker the consistent-hash scheduler maps it to.
    # ------------------------------------------------------------------
    loaded = cluster.preload("photos")
    print(f"preloaded {loaded} per-segment indexes")
    run_queries(cluster, dataset)  # warmup: plan cache + column caches
    qps = run_queries(cluster, dataset)
    print(f"steady-state QPS (2 workers): {qps:,.0f}   tiers: {tier_counts(cluster)}")

    # ------------------------------------------------------------------
    # 2. Scale out: new workers serve immediately via serving RPC.
    # ------------------------------------------------------------------
    cluster.scale_to(6)
    qps = run_queries(cluster, dataset)
    print(f"QPS during scale-out to 6 (serving bridges cold caches): {qps:,.0f}")
    print(f"  tiers: {tier_counts(cluster)}  serving RPCs: "
          f"{cluster.metrics.count('worker.serving_calls')}")
    print("  (without serving, moved segments would fall back to brute-force "
          "scans or block on index loads)")

    # Background loads complete as simulated time passes; the moved
    # segments become local.
    cluster.clock.advance(1.0)
    qps = run_queries(cluster, dataset)
    print(f"QPS after caches warm:        {qps:,.0f}   tiers: {tier_counts(cluster)}")

    # ------------------------------------------------------------------
    # 3. Kill a worker: the query level retries on the new topology
    #    (paper §II-E), and consistent hashing only remaps its segments.
    # ------------------------------------------------------------------
    victim = sorted(cluster.read_vw.workers)[0]
    before = run_queries(cluster, dataset, n=5)
    cluster.read_vw.fail_worker(victim)
    after = run_queries(cluster, dataset, n=5)
    print(f"\nfailed worker {victim}: QPS {before:,.0f} -> {after:,.0f} "
          f"(retries: {cluster.metrics.count('warehouse.query_retries')}, "
          f"workers: {cluster.read_vw.worker_count})")

    # ------------------------------------------------------------------
    # 4. Read/write isolation (paper Fig 12): a co-located write load
    #    inflates latency; a dedicated write warehouse would not.
    # ------------------------------------------------------------------
    cluster.read_vw.background_load = 0.6
    mixed = run_queries(cluster, dataset)
    cluster.read_vw.background_load = 0.0
    isolated = run_queries(cluster, dataset)
    print(f"\nmixed-VW QPS at 60% write load: {mixed:,.0f}; "
          f"dedicated VWs restore {isolated:,.0f}")


if __name__ == "__main__":
    main()
