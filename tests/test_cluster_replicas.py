"""Tests for replicated warehouses (paper §II-E redundancy)."""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.cluster.replicas import ReplicatedWarehouse
from repro.errors import NoWorkersError
from repro.executor.columnio import ColumnReader
from repro.ingest.writer import IngestConfig, SegmentWriter
from repro.planner.cost import CostModelParams
from repro.planner.logical import bind_select
from repro.planner.optimizer import Optimizer
from repro.sqlparser.parser import parse_statement
from repro.storage.lsm import SegmentManager
from repro.storage.objectstore import ObjectStore
from repro.vindex.registry import IndexSpec

DIM = 8


@pytest.fixture
def world(clock, cost):
    store = ObjectStore(clock, cost)
    catalog = Catalog()
    ddl = parse_statement(
        "CREATE TABLE t (id UInt64, embedding Array(Float32))"
    )
    schema = TableSchema.from_ddl(
        ddl.name, ddl.columns, index_spec=IndexSpec(index_type="FLAT", dim=DIM)
    )
    entry = catalog.create_table(schema)
    manager = SegmentManager()
    writer = SegmentWriter(
        entry, manager, store, clock, cost_model=cost,
        config=IngestConfig(max_segment_rows=60),
    )
    rng = np.random.default_rng(0)
    writer.ingest_rows(
        [{"id": i, "embedding": rng.normal(size=DIM)} for i in range(240)]
    )
    replicated = ReplicatedWarehouse(
        "crit", clock, cost, store, replicas=3, workers_per_replica=2,
    )
    params = CostModelParams.from_device_model(cost, DIM)
    reader = ColumnReader(clock, cost)

    def run_query():
        query = manager.segments()[0].vectors()[0]
        vec = "[" + ",".join(f"{x:.5f}" for x in query) + "]"
        select = parse_statement(
            f"SELECT id FROM t ORDER BY L2Distance(embedding, {vec}) LIMIT 5"
        )
        logical = bind_select(select, schema)
        plan = Optimizer(params).choose(
            logical, entry.statistics, schema.index_spec
        )
        bitmaps = {sid: manager.bitmap(sid) for sid in manager.segment_ids()}
        return replicated.execute_query(
            plan, manager.segments(), bitmaps, manager.index_key, reader, params
        )

    return replicated, run_query


class TestConstruction:
    def test_replica_count(self, world):
        replicated, _ = world
        assert len(replicated.replicas) == 3
        assert all(s.healthy for s in replicated.status())

    def test_bad_parameters(self, clock, cost, store):
        with pytest.raises(ValueError):
            ReplicatedWarehouse("x", clock, cost, store, replicas=0)
        with pytest.raises(ValueError):
            ReplicatedWarehouse("x", clock, cost, store, routing="random")


class TestRouting:
    def test_primary_serves_by_default(self, world):
        replicated, run_query = world
        result = run_query()
        assert len(result) == 5
        assert replicated.metrics.count("replicas.served_by.crit-r0") == 1

    def test_round_robin_spreads_load(self, world):
        replicated, run_query = world
        replicated.routing = "round_robin"
        for _ in range(6):
            run_query()
        served = [
            replicated.metrics.count(f"replicas.served_by.crit-r{i}")
            for i in range(3)
        ]
        assert served == [2, 2, 2]


class TestFailover:
    def test_dead_primary_fails_over(self, world):
        replicated, run_query = world
        baseline = run_query()
        replicated.replica(0).scale_to(0)
        result = run_query()
        assert [r for r in result.rows] == [r for r in baseline.rows]
        assert replicated.metrics.count("replicas.served_by.crit-r1") >= 1
        status = replicated.status()
        assert not status[0].healthy and status[1].healthy

    def test_all_replicas_down_raises(self, world):
        replicated, run_query = world
        for replica in replicated.replicas:
            replica.scale_to(0)
        with pytest.raises(NoWorkersError):
            run_query()

    def test_replica_rejoins_after_recovery(self, world):
        replicated, run_query = world
        replicated.replica(0).scale_to(0)
        run_query()
        replicated.replica(0).scale_to(2)
        run_query()
        assert replicated.metrics.count("replicas.served_by.crit-r0") >= 1

    def test_worker_level_failure_contained(self, world):
        """A single failed worker inside a replica is handled by that
        replica's own retry; no failover needed."""
        replicated, run_query = world
        victim = sorted(replicated.replica(0).workers)[0]
        replicated.replica(0).fail_worker(victim)
        result = run_query()
        assert len(result) == 5
        assert replicated.metrics.count("replicas.failovers") == 0


class TestCacheManagement:
    @pytest.fixture
    def loaded_world(self, clock, cost):
        """World exposing the manager for cache assertions."""
        store = ObjectStore(clock, cost)
        catalog = Catalog()
        ddl = parse_statement("CREATE TABLE t (id UInt64, embedding Array(Float32))")
        schema = TableSchema.from_ddl(
            ddl.name, ddl.columns, index_spec=IndexSpec(index_type="FLAT", dim=DIM)
        )
        entry = catalog.create_table(schema)
        manager = SegmentManager()
        writer = SegmentWriter(
            entry, manager, store, clock, cost_model=cost,
            config=IngestConfig(max_segment_rows=50),
        )
        rng = np.random.default_rng(1)
        writer.ingest_rows(
            [{"id": i, "embedding": rng.normal(size=DIM)} for i in range(150)]
        )
        replicated = ReplicatedWarehouse(
            "crit", clock, cost, store, replicas=2, workers_per_replica=2,
        )
        return replicated, manager

    def test_preload_covers_all_replicas(self, loaded_world):
        replicated, manager = loaded_world
        loaded = replicated.preload_indexes(
            manager.segment_ids(), manager.index_key
        )
        # 3 segments x 2 replicas.
        assert loaded == 2 * len(manager)
        for replica in replicated.replicas:
            resident = sum(
                1 for sid in manager.segment_ids()
                for worker in replica.workers.values()
                if worker.has_index_in_memory(manager.index_key(sid))
            )
            assert resident == len(manager)

    def test_invalidate_drops_everywhere(self, loaded_world):
        replicated, manager = loaded_world
        replicated.preload_indexes(manager.segment_ids(), manager.index_key)
        key = manager.index_key(manager.segment_ids()[0])
        replicated.invalidate_index(key)
        for replica in replicated.replicas:
            for worker in replica.workers.values():
                assert not worker.has_index_in_memory(key)


class TestClusteredEngineIntegration:
    def test_replicated_clustered_engine(self):
        from repro.cluster.engine import ClusteredBlendHouse

        cluster = ClusteredBlendHouse(read_workers=2, replicas=2)
        cluster.execute(
            "CREATE TABLE t (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=8'))"
        )
        rng = np.random.default_rng(0)
        rows = [{"id": i, "embedding": rng.normal(size=DIM).astype(np.float32)}
                for i in range(200)]
        cluster.insert_rows("t", rows)
        vec = "[" + ",".join(f"{x:.5f}" for x in rows[9]["embedding"]) + "]"
        sql = f"SELECT id FROM t ORDER BY L2Distance(embedding, {vec}) LIMIT 3"
        baseline = [r[0] for r in cluster.execute(sql).rows]
        assert baseline[0] == 9
        # Kill the whole primary replica; queries fail over.
        cluster.read_vw.replica(0).scale_to(0)
        assert [r[0] for r in cluster.execute(sql).rows] == baseline
        assert cluster.metrics.count("replicas.served_by.read-vw-r1") >= 1

    def test_replicated_scale_to_all_replicas(self):
        from repro.cluster.engine import ClusteredBlendHouse

        cluster = ClusteredBlendHouse(read_workers=2, replicas=2)
        cluster.scale_to(4)
        assert all(r.worker_count == 4 for r in cluster.read_vw.replicas)
