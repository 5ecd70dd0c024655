"""Tests for virtual warehouses and the clustered engine."""

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.cluster.faults import FaultSchedule
from repro.cluster.stats import SegmentAccessStats
from repro.errors import NoWorkersError


def vector_sql(vector):
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


@pytest.fixture
def cluster():
    engine = ClusteredBlendHouse(read_workers=3)
    engine.execute(
        "CREATE TABLE docs (id UInt64, label String, embedding Array(Float32), "
        "INDEX ann embedding TYPE FLAT('DIM=8'))"
    )
    engine.db.table("docs").writer.config.max_segment_rows = 100
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
        assert loaded == len(cluster.db.table("docs").manager)
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
        assert latency["mean"] == pytest.approx(cluster.db.cost.ram_latency_s)


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
        runtime = cluster.db.table("docs")
        keys_before = {
            sid: runtime.manager.index_key(sid)
            for sid in runtime.manager.segment_ids()
        }
        results = cluster.db.compact("docs")
        assert results, "compaction should merge the small segments"
        surviving = set(runtime.manager.segment_ids())
        retired_keys = [
            key for sid, key in keys_before.items() if sid not in surviving
        ]
        assert retired_keys, "some segments must have been retired"
        for worker in cluster.read_vw.workers.values():
            for key in retired_keys:
                assert not worker.has_index_in_memory(key)


class TestAdmissionControl:
    def make_cluster(self):
        engine = ClusteredBlendHouse(read_workers=2)
        engine.execute(
            "CREATE TABLE docs (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=8'))"
        )
        engine.db.table("docs").writer.config.max_segment_rows = 50
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
