"""Thread-vs-process executor equivalence and pool fault tolerance.

The process scan plane must be invisible in results: for every index
type, with delete bitmaps, under ``AS OF`` snapshots, and on adversarial
tie/zero-norm layouts, ``SET executor_mode = 'process'`` returns the
exact rows (and the exact simulated time) the thread path returns.  On
top of that, the pool must survive a worker being SIGKILLed mid-scan —
detect, respawn, re-ship, retry — without the query or the engine
noticing, and must leave no shared-memory blocks behind.
"""

import gc
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.faults import WorkerCrashFault
from repro.core.database import BlendHouse, EngineSettings
from repro.errors import SQLError
from repro.executor.procpool import (
    ProcessScanPool,
    shared_pool,
    shutdown_shared_pool,
)
from repro.storage.sharedblock import orphaned_shm_names

from tests.helpers import vector_sql, walk_spans

INDEX_TYPES = ["FLAT", "IVFFLAT", "IVFPQ", "IVFPQFS", "HNSW", "HNSWSQ", "DISKANN"]


def _options(name: str) -> str:
    options = "'DIM=16'"
    if name.startswith("IVFPQ"):
        options += ", 'm=4'"
    return options


def _engine(rng, index_type: str, n: int = 300) -> BlendHouse:
    db = BlendHouse()
    db.execute(
        "CREATE TABLE docs (id UInt64, label String, "
        f"embedding Array(Float32), INDEX ann embedding "
        f"TYPE {index_type}({_options(index_type)}))"
    )
    db.table("docs").writer.config.max_segment_rows = 100
    rows = [
        {
            "id": i,
            "label": ["news", "sports", "tech"][i % 3],
            "embedding": rng.normal(size=16).astype(np.float32),
        }
        for i in range(n)
    ]
    db.insert_rows("docs", rows)
    db._docs_rows = rows
    return db


def _topk_sql(query, k=10, where="", suffix=""):
    where_text = f"WHERE {where} " if where else ""
    return (
        f"SELECT id, dist FROM docs{suffix} {where_text}"
        f"ORDER BY L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )


def both_modes(db: BlendHouse, sql: str, same_cost: bool = False):
    db.execute("SET executor_mode = 'thread'")
    db.execute(sql)  # warm the index cache: both timed runs see warm tiers
    thread = db.execute(sql)
    thread_tree = list(walk_spans(db.tracer.last_root()))
    db.execute("SET executor_mode = 'process'")
    process = db.execute(sql)
    process_tree = list(walk_spans(db.tracer.last_root()))
    db.execute("SET executor_mode = 'thread'")
    # The worker's subtree crosses the pipe: both planes record the same
    # spans and tags, with real time on every one — and, where the planes
    # charge the same (``same_cost``), the same simulated seconds.
    assert [(s.name, s.tags, len(s.children)) for s in process_tree] == [
        (s.name, s.tags, len(s.children)) for s in thread_tree
    ]
    assert "segment_scan" in {s.name for s in process_tree}
    for ours, theirs in zip(process_tree, thread_tree):
        assert ours.finished and ours.wall_s > 0
        if not same_cost:
            continue
        if ours.name in ("query", "execute"):  # clock deltas lose the last bits
            assert ours.duration == pytest.approx(theirs.duration, rel=1e-9)
        else:
            assert ours.duration == theirs.duration, ours.name
    return thread, process


@pytest.mark.parametrize("name", INDEX_TYPES)
class TestModeEquivalence:
    """SET executor_mode='process' is byte-identical to 'thread'."""

    def test_topk_identical(self, rng, name):
        db = _engine(rng, name)
        for i in (3, 60, 150):
            query = db._docs_rows[i]["embedding"]
            thread, process = both_modes(db, _topk_sql(query), same_cost=True)
            assert process.rows == thread.rows
            assert process.simulated_seconds == thread.simulated_seconds

    def test_delete_bitmap_identical(self, rng, name):
        db = _engine(rng, name)
        db.execute("DELETE FROM docs WHERE id < 50")
        query = db._docs_rows[60]["embedding"]
        thread, process = both_modes(db, _topk_sql(query))
        assert process.rows == thread.rows
        assert all(row[0] >= 50 for row in process.rows)
        # The committed bitmaps travelled as shared-memory attach
        # handles, not per-scan pickles.
        assert db.metrics.count("procpool.bitmap_shm_ships") > 0

    def test_as_of_snapshot_identical(self, rng, name):
        db = _engine(rng, name)
        pinned = db.table("docs").manager.manifest_id
        db.execute("DELETE FROM docs WHERE id = 17")
        sql = _topk_sql(
            db._docs_rows[17]["embedding"], k=1, suffix=f" AS OF {pinned}"
        )
        thread, process = both_modes(db, sql)
        assert process.rows == thread.rows
        assert process.rows[0][0] == 17  # snapshot still sees the row

    def test_hybrid_predicate_identical(self, rng, name):
        db = _engine(rng, name)
        query = db._docs_rows[9]["embedding"]
        thread, process = both_modes(
            db, _topk_sql(query, where="label = 'news'")
        )
        assert process.rows == thread.rows

    def test_parallel_fanout_identical(self, rng, name):
        db = _engine(rng, name)
        db.execute("SET parallel_workers = 4")
        query = db._docs_rows[33]["embedding"]
        thread, process = both_modes(db, _topk_sql(query), same_cost=True)
        assert process.rows == thread.rows
        assert process.simulated_seconds == thread.simulated_seconds


class TestAdversarialLayouts:
    @given(seed=st.integers(0, 2**31 - 1), dup=st.integers(2, 4))
    @settings(max_examples=5, deadline=None)
    def test_ties_and_zero_norms_identical(self, seed, dup):
        # Duplicated rows force exact distance ties; zero rows and a
        # zero query hit the zero-norm corner — tie-breaking order must
        # survive the process boundary bit-for-bit.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(30, 16)).astype(np.float32)
        data = np.concatenate(
            [np.repeat(base, dup, axis=0), np.zeros((5, 16), dtype=np.float32)]
        )
        db = BlendHouse()
        db.execute(
            "CREATE TABLE docs (id UInt64, label String, "
            "embedding Array(Float32), INDEX ann embedding TYPE HNSW('DIM=16'))"
        )
        db.table("docs").writer.config.max_segment_rows = 40
        db.insert_rows("docs", [
            {"id": i, "label": "x", "embedding": data[i]}
            for i in range(data.shape[0])
        ])
        probes = [np.zeros(16, dtype=np.float32), data[0]]
        for query in probes:
            thread, process = both_modes(db, _topk_sql(query))
            assert process.rows == thread.rows


class TestSettingValidation:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert EngineSettings().executor_mode == "process"
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert EngineSettings().executor_mode == "thread"

    def test_bad_mode_rejected(self):
        settings_obj = EngineSettings()
        with pytest.raises(SQLError, match="executor_mode"):
            settings_obj.apply("executor_mode", "fibers")
        settings_obj.apply("executor_mode", "process")
        assert settings_obj.executor_mode == "process"


class TestCancellation:
    def test_staged_select_cancels_and_pool_recovers(self, rng):
        from repro.errors import QueryCancelledError
        from repro.executor.cancel import CancelToken

        db = _engine(rng, "HNSW")
        db.execute("SET executor_mode = 'process'")
        query = db._docs_rows[5]["embedding"]
        token = CancelToken()
        gen = db.select_stages(_topk_sql(query), cancel=token)
        next(gen)  # pin
        next(gen)  # plan
        token.cancel("client gone")
        with pytest.raises(QueryCancelledError):
            for _ in gen:
                pass
        # The cancel flag clears for the next query epoch; the pool
        # serves uncancelled queries normally afterwards.
        assert db.execute(_topk_sql(query)).rows

    def test_staged_select_routes_through_pool(self, rng):
        db = _engine(rng, "HNSW")
        query = db._docs_rows[42]["embedding"]
        db.execute("SET executor_mode = 'thread'")
        thread_rows = list(db.select_stages(_topk_sql(query)))[-1].result.rows
        db.execute("SET executor_mode = 'process'")
        scans_before = db.metrics.counters["procpool.scans"]
        process_rows = list(db.select_stages(_topk_sql(query)))[-1].result.rows
        assert process_rows == thread_rows
        assert db.metrics.counters["procpool.scans"] > scans_before


class TestWorkerCrash:
    """The WORKER_CRASH lever: kill → detect → respawn → retry."""

    def _crash_setup(self, rng):
        db = _engine(rng, "HNSW")
        pool = ProcessScanPool(workers=2, metrics=db.metrics)
        db._scan_pool_override = pool
        db.execute("SET executor_mode = 'process'")
        return db, pool

    def test_query_survives_mid_scan_crash(self, rng):
        db, pool = self._crash_setup(rng)
        try:
            query = db._docs_rows[60]["embedding"]
            baseline = db.execute(_topk_sql(query)).rows
            pids_before = set(pool.worker_pids())
            fault = WorkerCrashFault(pool).arm(1)
            crashed_run = db.execute(_topk_sql(query)).rows
            assert crashed_run == baseline
            assert fault.crashes_seen == 1
            assert fault.respawns_seen == 1
            # A dead pid was replaced by a fresh one.
            assert set(pool.worker_pids()) != pids_before
            # Engine unaffected: next query is clean, no more crashes.
            assert db.execute(_topk_sql(query)).rows == baseline
            assert pool.crashes == 1
        finally:
            pool.shutdown()

    def test_crash_events_emitted(self, rng):
        db, pool = self._crash_setup(rng)
        try:
            query = db._docs_rows[10]["embedding"]
            db.execute(_topk_sql(query))
            WorkerCrashFault(pool).arm(1)
            db.execute(_topk_sql(query))
            crash = db.events.last("worker.crash")
            respawn = db.events.last("worker.respawn")
            assert crash is not None and respawn is not None
            assert respawn.fields["replaced"] == crash.fields["pid"]
            assert db.metrics.counters["procpool.worker_crashes"] == 1
            assert db.metrics.counters["procpool.worker_respawns"] == 1
        finally:
            pool.shutdown()

    def test_repeated_crashes_eventually_fail_loudly(self, rng):
        from repro.errors import ExecutionError

        db, pool = self._crash_setup(rng)
        try:
            query = db._docs_rows[20]["embedding"]
            WorkerCrashFault(pool).arm(100)  # every attempt dies
            with pytest.raises(ExecutionError, match="crashed the scan"):
                db.execute(_topk_sql(query))
        finally:
            pool.shutdown()

    def test_crash_during_parallel_fanout(self, rng):
        db, pool = self._crash_setup(rng)
        try:
            db.execute("SET parallel_workers = 4")
            query = db._docs_rows[7]["embedding"]
            baseline = db.execute(_topk_sql(query)).rows
            WorkerCrashFault(pool).arm(1)
            assert db.execute(_topk_sql(query)).rows == baseline
            assert pool.respawns == 1
        finally:
            pool.shutdown()


class TestWarehouseProcessPlane:
    @staticmethod
    def _cluster(rng):
        from repro.cluster.engine import ClusteredBlendHouse

        engine = ClusteredBlendHouse(read_workers=3)
        engine.execute(
            "CREATE TABLE docs (id UInt64, label String, "
            "embedding Array(Float32), INDEX ann embedding TYPE FLAT('DIM=8'))"
        )
        engine.db.table("docs").writer.config.max_segment_rows = 100
        rows = [
            {"id": i, "label": ["a", "b"][i % 2],
             "embedding": rng.normal(size=8).astype(np.float32)}
            for i in range(600)
        ]
        engine.insert_rows("docs", rows)
        engine._rows = rows
        return engine

    @staticmethod
    def _sql(engine, k=5):
        query = engine._rows[17]["embedding"]
        return (
            f"SELECT id, dist FROM docs ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
        )

    def test_warehouse_scans_route_through_pool(self, rng):
        """Cluster admission (worker groups, LPT lanes, interference)
        must return identical rows whether scans run in-thread or on
        the process pool, across cold (brute/remote provider) and
        preloaded (local index) tiers."""
        engine = self._cluster(rng)
        sql = self._sql(engine)
        cold_thread = engine.execute(sql).rows
        pool = ProcessScanPool(workers=2, metrics=engine.metrics)
        engine.read_vw.scan_pool = pool
        try:
            cold_process = engine.execute(sql).rows
            assert cold_process == cold_thread
            engine.preload("docs")
            warm_process = engine.execute(sql).rows
            engine.read_vw.scan_pool = None
            warm_thread = engine.execute(sql).rows
            assert warm_process == warm_thread == cold_thread
        finally:
            engine.read_vw.scan_pool = None
            pool.shutdown()

    def test_warehouse_crash_respawn_mid_query(self, rng):
        engine = self._cluster(rng)
        sql = self._sql(engine)
        engine.preload("docs")
        baseline = engine.execute(sql).rows
        pool = ProcessScanPool(workers=2, metrics=engine.metrics)
        engine.read_vw.scan_pool = pool
        try:
            WorkerCrashFault(pool).arm(1)
            assert engine.execute(sql).rows == baseline
            assert pool.respawns == 1
        finally:
            engine.read_vw.scan_pool = None
            pool.shutdown()


class TestPoolHygiene:
    def test_shared_pool_is_reused_and_grows(self):
        pool_a = shared_pool(workers=2)
        pool_b = shared_pool(workers=3)
        assert pool_a is pool_b
        assert pool_b.size >= 3

    def test_no_shm_leaks_after_shutdown(self, rng):
        db = _engine(rng, "FLAT", n=150)
        db.execute("SET executor_mode = 'process'")
        db.execute(_topk_sql(db._docs_rows[0]["embedding"]))
        shutdown_shared_pool()
        del db
        gc.collect()
        assert orphaned_shm_names() == []

    def test_pool_shutdown_is_idempotent(self):
        pool = ProcessScanPool(workers=1)
        pool.shutdown()
        pool.shutdown()
        assert not pool.alive
