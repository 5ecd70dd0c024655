"""Tests for workers: cache tiers, serving, background loads."""

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.cluster.rpc import RpcFabric
from repro.cluster.serving import RemoteSearchProvider
from repro.cluster.worker import Worker
from repro.errors import WorkerUnavailableError
from repro.executor.annscan import ScanCharger, search_with_filter_op
from repro.observe.trace import Tracer
from repro.storage.lsm import index_storage_key
from repro.storage.segment import Segment
from repro.vindex.flat import FlatIndex
from repro.vindex.hnsw import HNSWIndex
from repro.vindex.registry import serialize_index
from tests.helpers import vector_sql


@pytest.fixture
def world(clock, cost, store, metrics):
    """A persisted segment + index, a fabric, and two workers."""
    rng = np.random.default_rng(0)
    n = 80
    vectors = rng.normal(size=(n, 8)).astype(np.float32)
    segment = Segment.from_columns(
        "t/seg-0", "t", {"id": np.arange(n, dtype=np.uint64)}, vectors
    )
    segment.meta.index_type = "FLAT"
    index = FlatIndex(dim=8)
    index.add_with_ids(vectors, np.arange(n))
    key = index_storage_key(segment.segment_id, "FLAT")
    store.put(key, serialize_index(index))
    fabric = RpcFabric(clock, cost, metrics, Tracer(clock))
    owner = Worker("owner", clock, cost, store, fabric, metrics=metrics)
    newcomer = Worker("newcomer", clock, cost, store, fabric, metrics=metrics)
    return segment, key, owner, newcomer, vectors


class TestResolution:
    def test_no_index_key_is_brute(self, world):
        segment, _, owner, _, _ = world
        provider, tier = owner.resolve_provider(segment, None, None)
        assert provider is None and tier == "brute"

    def test_cold_miss_is_brute_with_background_load(self, world):
        segment, key, owner, _, _ = world
        provider, tier = owner.resolve_provider(segment, key, None)
        assert provider is None and tier == "brute"
        assert key in owner._pending_loads

    def test_preload_makes_local(self, world):
        segment, key, owner, _, _ = world
        assert owner.preload(key)
        provider, tier = owner.resolve_provider(segment, key, None)
        assert tier == "local"
        result = provider.search_with_filter(segment.vectors()[3], 1)
        assert result.ids[0] == 3

    def test_background_load_completes_with_time(self, world, clock):
        segment, key, owner, _, _ = world
        owner.resolve_provider(segment, key, None)  # schedules async load
        clock.advance(10.0)  # well past the fetch time
        provider, tier = owner.resolve_provider(segment, key, None)
        assert tier == "local"

    def test_disk_tier_after_memory_loss(self, world, clock):
        segment, key, owner, _, _ = world
        owner.preload(key)
        owner.cache.clear_memory()
        provider, tier = owner.resolve_provider(segment, key, None)
        assert tier == "disk"

    def test_serving_tier_via_previous_owner(self, world):
        segment, key, owner, newcomer, _ = world
        owner.preload(key)
        provider, tier = newcomer.resolve_provider(segment, key, owner)
        assert tier == "serving"
        assert isinstance(provider, RemoteSearchProvider)
        result = provider.search_with_filter(segment.vectors()[5], 1)
        assert result.ids[0] == 5

    def test_serving_disabled_falls_to_brute(self, world):
        segment, key, owner, newcomer, _ = world
        owner.preload(key)
        provider, tier = newcomer.resolve_provider(
            segment, key, owner, serving_enabled=False
        )
        assert tier == "brute"

    def test_previous_owner_without_cache_is_brute(self, world):
        segment, key, owner, newcomer, _ = world
        provider, tier = newcomer.resolve_provider(segment, key, owner)
        assert tier == "brute"


class TestServingEndpoint:
    def test_serve_search_requires_residency(self, world):
        segment, key, owner, _, _ = world
        with pytest.raises(WorkerUnavailableError):
            owner._serve_search(key, segment.vectors()[0], 1, None, {})

    def test_serve_search_with_bitset(self, world):
        segment, key, owner, _, _ = world
        owner.preload(key)
        bitset = np.zeros(segment.row_count, dtype=bool)
        bitset[10:20] = True
        result = owner._serve_search(key, segment.vectors()[0], 5, bitset, {})
        assert set(result.ids.tolist()) <= set(range(10, 20))


class TestInvalidation:
    def test_invalidate_drops_all_tiers(self, world):
        segment, key, owner, _, _ = world
        owner.preload(key)
        owner.invalidate(key)
        provider, tier = owner.resolve_provider(segment, key, None)
        assert tier == "brute"

    def test_lose_memory_clears_pending(self, world):
        segment, key, owner, _, _ = world
        owner.resolve_provider(segment, key, None)
        owner.lose_memory()
        assert not owner._pending_loads


class TestRemoteProviderCosts:
    def test_rpc_cost_charged(self, world, clock):
        segment, key, owner, newcomer, _ = world
        owner.preload(key)
        provider, _ = newcomer.resolve_provider(segment, key, owner)
        before = clock.now
        provider.search_with_filter(segment.vectors()[0], 3)
        assert clock.now > before

    def test_remote_iterator_works(self, world):
        segment, key, owner, newcomer, _ = world
        owner.preload(key)
        provider, _ = newcomer.resolve_provider(segment, key, owner)
        iterator = provider.search_iterator(segment.vectors()[0], batch_size=5)
        first = iterator.next_batch()
        second = iterator.next_batch()
        assert len(first) == 5 and len(second) == 5
        assert not set(first.ids.tolist()) & set(second.ids.tolist())

    def test_remote_range_search(self, world):
        segment, key, owner, newcomer, vectors = world
        owner.preload(key)
        provider, _ = newcomer.resolve_provider(segment, key, owner)
        query = vectors[0]
        distances = np.linalg.norm(vectors - query, axis=1)
        radius = float(np.sort(distances)[10])
        result = provider.search_with_range(query, radius)
        assert len(result) == 11

    def test_served_range_matches_local(self, clock, cost, store, metrics):
        """A served range search returns the local ids and charges every
        doubling round's visits, as the local one does."""
        vectors = np.random.default_rng(1).normal(size=(500, 8)).astype(np.float32)
        segment = Segment.from_columns(
            "t/seg-0", "t", {"id": np.arange(500, dtype=np.uint64)}, vectors
        )
        segment.meta.index_type = "HNSW"
        index = HNSWIndex(dim=8)
        index.add_with_ids(vectors, np.arange(500))
        key = index_storage_key(segment.segment_id, "HNSW")
        store.put(key, serialize_index(index))
        fabric = RpcFabric(clock, cost, metrics, Tracer(clock))
        owner = Worker("owner", clock, cost, store, fabric, metrics=metrics)
        newcomer = Worker("newcomer", clock, cost, store, fabric, metrics=metrics)
        owner.preload(key)
        provider, tier = newcomer.resolve_provider(segment, key, owner)
        assert tier == "serving"

        local = index.search_with_range(vectors[0], 6.0)
        served = provider.search_with_range(vectors[0], 6.0)
        assert served.ids.tolist() == local.ids.tolist()
        assert served.visited == local.visited
        assert local.visited > index.ntotal  # more than one doubling round
        # A negative l2 radius is a predicate no row meets, served or local.
        assert len(provider.search_with_range(vectors[0], -1.0)) == 0
        assert len(index.search_with_range(vectors[0], -1.0)) == 0

    def test_served_knn_charges_a_local_knn_plus_the_rpc(
        self, clock, cost, store, metrics
    ):
        """A served kNN charges what a local kNN of the segment charges,
        plus the ``rpc.call`` span: the walk is priced once, by the
        requester's ``ScanCharger``, never by the owner."""
        vectors = np.random.default_rng(3).normal(size=(500, 8)).astype(np.float32)
        segment = Segment.from_columns(
            "t/seg-0", "t", {"id": np.arange(500, dtype=np.uint64)}, vectors
        )
        segment.meta.index_type = "HNSW"
        index = HNSWIndex(dim=8)
        index.add_with_ids(vectors, np.arange(500))
        key = index_storage_key(segment.segment_id, "HNSW")
        store.put(key, serialize_index(index))
        tracer = Tracer(clock)
        fabric = RpcFabric(clock, cost, metrics, tracer)
        owner = Worker("owner", clock, cost, store, fabric, metrics=metrics)
        newcomer = Worker("newcomer", clock, cost, store, fabric, metrics=metrics)
        owner.preload(key)
        local, local_tier = owner.resolve_provider(segment, key, None)
        served, served_tier = newcomer.resolve_provider(segment, key, owner)
        assert (local_tier, served_tier) == ("local", "serving")
        charger = ScanCharger(clock, cost, metrics, 8, "HNSW")

        def charged(provider):
            with clock.capturing() as captured, tracer.span("probe") as probe:
                result = search_with_filter_op(provider, vectors[5], 10, None, charger)
            return result, captured.total, probe.find_all("rpc.call")

        local_result, local_cost, local_rpcs = charged(local)
        handshakes = metrics.latency("rpc.latency").count
        served_result, served_cost, rpcs = charged(served)
        network = metrics.latency("rpc.latency").values[handshakes:]
        assert served_result.ids.tolist() == local_result.ids.tolist()
        assert served_result.visited == local_result.visited > 0
        assert not local_rpcs and len(rpcs) == len(network) == 1
        # The RPC span holds the round trip and the owner's memory-tier
        # lookup of the index, not the walk.
        with clock.capturing() as lookup:
            owner.cache.get(key)
        assert rpcs[0].duration == pytest.approx(network[0] + lookup.total, rel=1e-12)
        assert served_cost == pytest.approx(
            local_cost + sum(span.duration for span in rpcs), rel=1e-12
        )

    def test_served_batch_matches_sequential(self):
        """A batch over segments that moved to a cold worker is searched
        by their previous owners, query by query, and answers as the
        same SELECTs one at a time do."""
        rng = np.random.default_rng(2)
        cluster = ClusteredBlendHouse(read_workers=2)
        cluster.execute(
            "CREATE TABLE t (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE HNSW('DIM=16'))"
        )
        cluster.table("t").writer.config.max_segment_rows = 500
        vectors = rng.normal(size=(4000, 16)).astype(np.float32)
        cluster.insert_columns("t", {"id": np.arange(4000, dtype=np.uint64)}, vectors)
        cluster.preload("t")
        cluster.scale_to(4)
        for worker in cluster.read_vw.workers.values():
            worker.schedule_background_load = lambda key: None
        # Quarter steps: the SQL literals are the matrix rows exactly.
        queries = (rng.integers(-8, 9, size=(3, 16)) / 4).astype(np.float32)
        sequential = [
            cluster.execute(
                f"SELECT id, dist FROM t ORDER BY "
                f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 10"
            ).rows
            for query in queries
        ]
        served = cluster.metrics.count("worker.served_searches")
        cluster.tracer.reset()
        batch = cluster.search_batch("t", queries, k=10)
        assert [result.rows for result in batch.results] == sequential
        tiers = [
            span.tags["tier"]
            for span in cluster.tracer.last_root().find_all("index_resolve")
        ]
        moved = tiers.count("serving")
        assert moved > 0
        assert cluster.metrics.count("worker.served_searches") == served + 3 * moved
