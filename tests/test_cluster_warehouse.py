"""Tests for virtual warehouses and the clustered engine."""

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.cluster.faults import FaultSchedule
from repro.cluster.stats import SegmentAccessStats
from repro.errors import NoWorkersError

from tests.helpers import drop_and_recreate


def vector_sql(vector):
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


@pytest.fixture
def cluster():
    engine = ClusteredBlendHouse(read_workers=3)
    engine.execute(
        "CREATE TABLE docs (id UInt64, label String, embedding Array(Float32), "
        "INDEX ann embedding TYPE FLAT('DIM=8'))"
    )
    engine.table("docs").writer.config.max_segment_rows = 100
    rng = np.random.default_rng(0)
    rows = [
        {"id": i, "label": ["a", "b"][i % 2],
         "embedding": rng.normal(size=8).astype(np.float32)}
        for i in range(600)
    ]
    engine.insert_rows("docs", rows)
    engine._rows = rows
    return engine


def top_ids(cluster, k=5, where=""):
    query = cluster._rows[17]["embedding"]
    where_text = f"WHERE {where} " if where else ""
    sql = (
        f"SELECT id, dist FROM docs {where_text}"
        f"ORDER BY L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )
    return [row[0] for row in cluster.execute(sql).rows]


class TestDistributedCorrectness:
    def test_matches_exact_search(self, cluster):
        rows = cluster._rows
        query = rows[17]["embedding"]
        distances = sorted(
            (float(np.linalg.norm(r["embedding"] - query)), r["id"]) for r in rows
        )
        expected = [rid for _, rid in distances[:5]]
        assert top_ids(cluster) == expected

    def test_hybrid_predicate_respected(self, cluster):
        ids = top_ids(cluster, k=5, where="label = 'a'")
        assert all(i % 2 == 0 for i in ids)

    def test_cold_cluster_uses_brute_force(self, cluster):
        top_ids(cluster)
        assert cluster.metrics.count("warehouse.tier.brute") > 0

    def test_preload_switches_to_local(self, cluster):
        loaded = cluster.preload("docs")
        assert loaded == len(cluster.table("docs").manager)
        before = cluster.metrics.count("warehouse.tier.local")
        top_ids(cluster)
        assert cluster.metrics.count("warehouse.tier.local") > before

    def test_empty_warehouse_raises(self, cluster):
        cluster.read_vw.scale_to(0)
        with pytest.raises(NoWorkersError):
            top_ids(cluster)


class TestSegmentAccessStats:
    def test_hit_and_miss_tiers(self):
        stats = SegmentAccessStats()
        stats.record("seg-a", "local", now=1.0)
        stats.record("seg-a", "disk", now=2.0)
        stats.record("seg-a", "serving", now=3.0)
        access = stats.get("seg-a")
        assert access.hits == 2 and access.misses == 1
        assert access.last_access == 3.0
        assert access.tiers == {"local": 1, "disk": 1, "serving": 1}

    def test_hot_segments_ranked_by_heat(self):
        stats = SegmentAccessStats()
        for _ in range(3):
            stats.record("seg-hot", "local", now=1.0)
        stats.record("seg-warm", "disk", now=2.0)
        assert stats.hot_segments() == ["seg-hot", "seg-warm"]
        assert stats.hot_segments(limit=1) == ["seg-hot"]

    def test_preloads_do_not_count_as_heat(self):
        stats = SegmentAccessStats()
        stats.record_preload("seg-a", now=1.0)
        assert stats.hot_segments() == []
        assert stats.get("seg-a").preloads == 1

    def test_merge_from(self):
        a, b = SegmentAccessStats(), SegmentAccessStats()
        a.record("seg", "local", now=1.0)
        b.record("seg", "remote", now=5.0)
        merged = SegmentAccessStats()
        merged.merge_from([a, b])
        access = merged.get("seg")
        assert access.hits == 1 and access.misses == 1
        assert access.last_access == 5.0
        assert merged.hit_rate() == 0.5


class TestWarehouseAccessStats:
    def test_export_metrics_records_segment_stats(self, cluster):
        cluster.preload("docs")
        top_ids(cluster)
        exported = cluster.read_vw.export_metrics()
        assert exported["name"] == "read-vw"
        assert exported["segments"], "per-segment stats must be recorded"
        assert exported["hit_rate"] > 0.0
        for entry in exported["segments"].values():
            assert set(entry) >= {"hits", "misses", "preloads", "tiers"}

    def test_preload_counts_per_segment(self, cluster):
        loaded = cluster.preload("docs")
        assert loaded > 0
        snapshot = cluster.read_vw.access_stats.snapshot()
        assert sum(entry["preloads"] for entry in snapshot.values()) == loaded

    def test_memory_tier_latency_is_charged_inside_the_scan(self, cluster):
        # Index resolution runs inside the scan's clock capture, where
        # ``clock.now`` stands still; the tier latency must still read
        # what the lookup charged.
        cluster.preload("docs")
        top_ids(cluster)
        latency = cluster.metrics.as_dict()["latencies"]["index_cache.tier.memory"]
        assert latency["count"] > 0
        assert latency["mean"] == pytest.approx(cluster.cost.ram_latency_s)


class TestScaling:
    def test_serving_after_scale_up(self, cluster):
        cluster.preload("docs")
        top_ids(cluster)
        cluster.scale_to(5)
        top_ids(cluster)
        assert cluster.metrics.count("warehouse.tier.serving") > 0
        # The serving RPCs ran inside captured scans; their spans still
        # report what they charged, inside the scan that issued them.
        calls = cluster.tracer.last_root().find_all("rpc.call")
        assert calls
        assert {call.tags["method"] for call in calls} == {"has_index", "search"}
        for call in calls:
            assert 0 < call.duration <= call.parent.duration
            scan = call.parent if call.tags["method"] == "search" else call.parent.parent
            assert scan.name == "segment_scan"
            assert scan.find("index_resolve").tags["tier"] == "serving"

    def test_results_stable_across_scaling(self, cluster):
        cluster.preload("docs")
        before = top_ids(cluster)
        cluster.scale_to(6)
        after = top_ids(cluster)
        assert before == after

    def test_scale_down(self, cluster):
        cluster.scale_to(1)
        assert cluster.read_vw.worker_count == 1
        assert len(top_ids(cluster)) == 5

    def test_makespan_parallelism(self, cluster):
        """More workers → less simulated time per query (same work split
        across more nodes)."""
        cluster.preload("docs")
        cluster.settings.enable_plan_cache = True
        top_ids(cluster)  # warm plan cache
        one_start = cluster.clock.now
        top_ids(cluster)
        t_three = cluster.clock.now - one_start

        cluster.scale_to(6)
        cluster.preload("docs")
        two_start = cluster.clock.now
        top_ids(cluster)
        t_six = cluster.clock.now - two_start
        assert t_six <= t_three * 1.05


class TestInterference:
    def test_background_load_inflates_makespan(self, cluster):
        """Interference applies to the warehouse's compute makespan (the
        planning path runs on the service layer and is unaffected)."""
        cluster.preload("docs")
        recorder = cluster.metrics.latency("warehouse.makespan")
        top_ids(cluster)
        clean = recorder.values[-1]
        cluster.read_vw.background_load = 0.75
        top_ids(cluster)
        loaded = recorder.values[-1]
        assert loaded == pytest.approx(clean * 4.0, rel=0.2)


class TestFaults:
    def test_query_survives_worker_failure(self, cluster):
        cluster.preload("docs")
        expected = top_ids(cluster)
        victim = sorted(cluster.read_vw.workers)[0]
        cluster.read_vw.fail_worker(victim)
        assert top_ids(cluster) == expected

    def test_fault_schedule_fires_in_order(self, cluster):
        schedule = FaultSchedule(cluster.read_vw)
        victim = sorted(cluster.read_vw.workers)[0]
        now = cluster.clock.now
        schedule.fail_at(now + 0.5, victim).recover_at(now + 1.0, victim)
        assert schedule.pending == 2
        cluster.clock.advance(0.6)
        fired = schedule.tick()
        assert [k for _, k, _ in fired] == ["fail"]
        assert cluster.read_vw.worker_count == 2
        cluster.clock.advance(0.5)
        schedule.tick()
        assert cluster.read_vw.worker_count == 3
        assert schedule.pending == 0

    def test_recovered_worker_serves(self, cluster):
        schedule = FaultSchedule(cluster.read_vw)
        victim = sorted(cluster.read_vw.workers)[0]
        cluster.read_vw.fail_worker(victim)
        schedule.recover_at(cluster.clock.now, victim)
        schedule.tick()
        assert len(top_ids(cluster)) == 5


class TestCompactionInvalidation:
    def test_retired_indexes_dropped_from_workers(self, cluster):
        cluster.preload("docs")
        runtime = cluster.table("docs")
        keys_before = {
            sid: runtime.manager.index_key(sid)
            for sid in runtime.manager.segment_ids()
        }
        results = cluster.compact("docs")
        assert results, "compaction should merge the small segments"
        surviving = set(runtime.manager.segment_ids())
        retired_keys = [
            key for sid, key in keys_before.items() if sid not in surviving
        ]
        assert retired_keys, "some segments must have been retired"
        for worker in cluster.read_vw.workers.values():
            for key in retired_keys:
                assert not worker.has_index_in_memory(key)

    def test_tables_filled_through_the_core_engine_are_hooked_too(self, cluster):
        """The retire hook is the engine's, so a table created and filled
        after the engine was built drops its retired indexes too."""
        cluster.execute(
            "CREATE TABLE more (id UInt64, label String, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=8'))"
        )
        runtime = cluster.table("more")
        runtime.writer.config.max_segment_rows = 100
        cluster.insert_rows("more", cluster._rows)
        cluster.preload("more")
        keys_before = set(map(runtime.manager.index_key, runtime.manager.segment_ids()))
        assert cluster.compact("more")
        retired = keys_before - set(map(runtime.manager.index_key, runtime.manager.segment_ids()))
        assert retired
        for worker in cluster.read_vw.workers.values():
            assert not any(worker.has_index_in_memory(key) for key in retired)

    def test_retired_segments_leave_stats_and_owner_maps(self, cluster):
        """A compaction input's access stats and owner history go with it,
        as a dropped table's do."""
        cluster.preload("docs")
        runtime = cluster.table("docs")
        before = runtime.manager.segment_ids()
        assert all(cluster.read_vw.access_stats.get(sid) for sid in before)
        assert cluster.compact("docs")
        retired = set(before) - set(runtime.manager.segment_ids())
        assert retired
        for segment_id in retired:
            assert cluster.read_vw.access_stats.get(segment_id) is None
            assert cluster.read_vw.scheduler.current_owner(segment_id) is None


class TestDropTable:
    def test_recreated_table_reads_nothing_of_the_dropped_one(self):
        """The re-created table's segments answer from its own rows
        alone: no index and no column block of the dropped table is
        read under the new table's segment ids."""
        ids, exact, cache_hits = drop_and_recreate(ClusteredBlendHouse(read_workers=2))
        assert ids == exact
        assert cache_hits == 0

    def test_recreated_table_inherits_no_heat(self):
        """The dropped table's access stats and owner history go with
        its segments' retirement: the new table's segments read no hit
        and no preload, and its first query misses on every segment."""
        engine = ClusteredBlendHouse(read_workers=2)
        drop_and_recreate(engine)
        segment_ids = engine.table("t").manager.segment_ids()
        assert len(segment_ids) == 4
        for segment_id in segment_ids:
            entry = engine.read_vw.access_stats.get(segment_id)
            assert (entry.hits, entry.misses, entry.preloads) == (0, 1, 0)
            assert engine.read_vw.scheduler.previous_owner(segment_id) is None


def knn_sql(table, query, k):
    return (
        f"SELECT id, dist FROM {table} ORDER BY "
        f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )


class TestResidentFirst:
    """A worker scans the segments whose index it holds first (DESIGN.md
    §13, "Resident first")."""

    @staticmethod
    def make_items(capped):
        """Two workers over an 8-segment HNSW table the ring splits 4 / 4;
        ``capped``: each worker's memory tier holds 2 of its 4 indexes."""
        engine = ClusteredBlendHouse(read_workers=0)
        engine.execute(
            "CREATE TABLE items (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE HNSW('DIM=8'))"
        )
        runtime = engine.table("items")
        runtime.writer.config.max_segment_rows = 50
        vectors = np.random.default_rng(3).normal(size=(400, 8)).astype(np.float32)
        engine.insert_rows("items", [{"id": i, "embedding": v} for i, v in enumerate(vectors)])
        if capped:
            sizes = [index.memory_bytes() for index in runtime.writer.built_indexes.values()]
            budget = int(2.5 * max(sizes))
            assert 3 * min(sizes) > budget
            engine.read_vw.config.worker_mem_data_bytes = budget
        engine.scale_to(2)
        engine.preload("items")
        scheduler = engine.read_vw.scheduler
        shares = scheduler.group_by_worker(scheduler.assign(runtime.manager.segment_ids()))
        assert sorted(map(len, shares.values())) == [4, 4]
        return engine, vectors

    def test_capped_worker_hits_every_index_it_holds(self):
        capped, vectors = self.make_items(capped=True)
        unconstrained, _ = self.make_items(capped=False)
        sql = knn_sql("items", vectors[17], 10)
        expected = unconstrained.execute(sql).rows
        exact = np.argsort(((vectors - vectors[17]) ** 2).sum(axis=1), kind="stable")[:10]
        assert [row[0] for row in expected] == exact.tolist()
        for query in range(5):
            before = {t: capped.metrics.count(f"index_cache.{t}_hits") for t in ("memory", "disk")}
            assert capped.execute(sql).rows == expected
            hits = {t: capped.metrics.count(f"index_cache.{t}_hits") - before[t] for t in before}
            if query:
                # Scheduler order would hit nothing: each index is evicted
                # just before it is needed, 8 disk hits a query.
                assert hits == {"memory": 4, "disk": 4}

    def test_unconstrained_scan_order_keeps_bits_and_rows(self):
        """25 segments over 5 workers scaled to 4: the survivors hold
        their own indexes but not the ones they take over, so they scan
        out of scheduler order; costs still add, and partials still
        merge, in scheduler order."""
        engine = ClusteredBlendHouse(read_workers=5)
        engine.execute(
            "CREATE TABLE docs (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE HNSW('DIM=8'))"
        )
        engine.table("docs").writer.config.max_segment_rows = 40
        vectors = np.random.default_rng(0).normal(size=(1000, 8)).astype(np.float32)
        engine.insert_rows("docs", [{"id": i, "embedding": v} for i, v in enumerate(vectors)])
        engine.preload("docs")
        sql = knn_sql("docs", vectors[17], 5)
        expected = engine.execute(sql).rows
        engine.scale_to(4)
        result = engine.execute(sql)
        assert result.rows == expected
        scans = engine.tracer.last_root().find_all("worker_scan")
        assert any(0 < scan.tags["resident"] < scan.tags["segments"] for scan in scans)
        # The bits scheduler order gives (summed in scan order they end
        # ...7afa3p-20).
        assert result.simulated_seconds.hex() == "0x1.c9d1114c7afa4p-20"
        # A LIMIT without ORDER BY concatenates the partials; in scan order
        # the rows after segment 0's would be segment 13's, not 8's.
        rows = engine.execute("SELECT id FROM docs WHERE id >= 0 LIMIT 45").rows
        assert [row[0] for row in rows] == list(range(40)) + list(range(320, 325))


class TestAdmissionControl:
    def make_cluster(self):
        engine = ClusteredBlendHouse(read_workers=2)
        engine.execute(
            "CREATE TABLE docs (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=8'))"
        )
        engine.table("docs").writer.config.max_segment_rows = 50
        rng = np.random.default_rng(0)
        rows = [
            {"id": i, "embedding": rng.normal(size=8).astype(np.float32)}
            for i in range(400)
        ]
        engine.insert_rows("docs", rows)
        engine._rows = rows
        return engine

    def run_one(self, engine):
        query = engine._rows[3]["embedding"]
        sql = (
            f"SELECT id, dist FROM docs ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 5"
        )
        return engine.execute(sql)

    def test_queue_depth_metric_recorded(self):
        engine = self.make_cluster()
        self.run_one(engine)
        gauge = engine.metrics.sampled("warehouse.queue_depth")
        assert gauge.count > 0
        # 8 segments over 2 workers that scan one at a time: every scan
        # after a worker's first waits, and the counter tracks how many.
        assert engine.metrics.count("warehouse.scans_queued") > 0
