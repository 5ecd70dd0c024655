"""Cold-restart recovery tests: checkpoint + WAL tail, monotonicity, AS OF."""

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.core.database import BlendHouse
from repro.durability.crashpoints import CrashPointRegistry, InjectedCrash
from repro.durability.manager import DurabilityConfig
from repro.elastic import FleetBlendHouse, FleetConfig
from tests.helpers import payload_ids, vector_sql

DIM = 8


def rows_for(rng, start, count, label="a"):
    return [
        {"id": start + i, "label": label,
         "embedding": rng.normal(size=DIM).astype(np.float32)}
        for i in range(count)
    ]


def build_db(rng, index_type="HNSW"):
    db = BlendHouse()
    db.execute(
        "CREATE TABLE docs (id UInt64, label String, embedding Array(Float32), "
        f"INDEX ann embedding TYPE {index_type}('DIM={DIM}'))"
    )
    db.insert_rows("docs", rows_for(rng, 0, 80, "a"))
    db.insert_rows("docs", rows_for(rng, 80, 80, "b"))
    db.execute("DELETE FROM docs WHERE id < 10")
    db.execute("UPDATE docs SET label = 'z' WHERE id = 42")
    return db


def topk_sql(query, k=20, where=""):
    return (
        f"SELECT id, label, dist FROM docs {where} ORDER BY "
        f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )


def assert_equivalent(db_a, db_b, query):
    names_a = sorted(e.schema.name for e in db_a.catalog.entries())
    names_b = sorted(e.schema.name for e in db_b.catalog.entries())
    assert names_a == names_b
    for sql in (
        topk_sql(query),
        topk_sql(query, where="WHERE label = 'z'"),
        topk_sql(query, k=200),
    ):
        assert db_a.execute(sql).rows == db_b.execute(sql).rows
    for name in names_a:
        da, dbb = db_a.describe(name), db_b.describe(name)
        for field in ("segments", "rows_alive", "rows_deleted", "manifest_id",
                      "columns", "vector_dim"):
            assert da[field] == dbb[field], field


class TestRecover:
    def test_store_only_rebuild_answers_identically(self, rng):
        db = build_db(rng)
        query = rng.normal(size=DIM).astype(np.float32)
        db.execute("CHECKPOINT")
        db.insert_rows("docs", rows_for(rng, 160, 40, "c"))  # WAL tail
        recovered = BlendHouse.recover(db.store)
        assert_equivalent(db, recovered, query)
        assert recovered.last_recovery.replayed_records > 0

    def test_wal_only_recovery_without_checkpoint(self, rng):
        db = build_db(rng)
        query = rng.normal(size=DIM).astype(np.float32)
        recovered = BlendHouse.recover(db.store)
        assert recovered.last_recovery.checkpoint_id is None
        assert_equivalent(db, recovered, query)

    def test_manifest_id_monotonicity_preserved(self, rng):
        db = build_db(rng)
        before = db.table("docs").manager.manifest_id
        recovered = BlendHouse.recover(db.store)
        assert recovered.table("docs").manager.manifest_id == before
        recovered.insert_rows("docs", rows_for(rng, 500, 10))
        assert recovered.table("docs").manager.manifest_id > before

    def test_as_of_time_travel_survives_restart(self, rng):
        db = build_db(rng)
        query = rng.normal(size=DIM).astype(np.float32)
        pinned = db.table("docs").manager.manifest_id
        db.insert_rows("docs", rows_for(rng, 300, 30, "new"))
        sql = topk_sql(query).replace("FROM docs", f"FROM docs AS OF {pinned}")
        expected = db.execute(sql).rows
        recovered = db.restart()
        assert recovered.execute(sql).rows == expected

    def test_lsn_sequence_continues_after_recovery(self, rng):
        db = build_db(rng)
        tail = db.durability_status()["last_flushed_lsn"]
        recovered = BlendHouse.recover(db.store)
        assert recovered.durability_status()["last_flushed_lsn"] == tail
        recovered.insert_rows("docs", rows_for(rng, 400, 5))
        assert recovered.durability_status()["last_flushed_lsn"] > tail

    def test_empty_store_recovers_to_empty_engine(self, store):
        recovered = BlendHouse.recover(store)
        assert recovered.catalog.entries() == []
        assert recovered.last_recovery.replayed_records == 0
        recovered.execute(
            "CREATE TABLE t (id UInt64, embedding Array(Float32), "
            f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
        )

    def test_dropped_table_stays_dropped(self, rng):
        db = build_db(rng)
        db.execute("CHECKPOINT")
        db.execute("DROP TABLE docs")
        recovered = BlendHouse.recover(db.store)
        assert all(e.schema.name != "docs" for e in recovered.catalog.entries())

    def test_restart_flushes_pending_wal(self, rng):
        db = build_db(rng)
        query = rng.normal(size=DIM).astype(np.float32)
        expected = db.execute(topk_sql(query)).rows
        db.execute("CHECKPOINT")
        recovered = db.restart()
        cold = recovered.execute(topk_sql(query))
        assert cold.rows == expected
        # The cold query's trace says where its time went: every index
        # came from the object store and the projection read cold columns,
        # both inside captured stages that used to read zero.
        root = recovered.tracer.last_root()
        resolves = root.find_all("index_resolve")
        assert resolves and all(
            span.tags["tier"] == "remote" and span.duration > 0 for span in resolves
        )
        assert root.find("merge_project").duration > 0
        assert root.find("delete_bitmap.filter").finished
        assert root.find("execute").duration == pytest.approx(
            cold.simulated_seconds, rel=1e-9
        )
        assert sum(child.duration for child in root.children) == pytest.approx(
            root.duration, abs=1e-12
        )

    def test_compaction_survives_restart(self, rng):
        db = build_db(rng)
        query = rng.normal(size=DIM).astype(np.float32)
        db.compact("docs")
        expected = db.execute(topk_sql(query)).rows
        segments = db.describe("docs")["segments"]
        recovered = db.restart()
        assert recovered.describe("docs")["segments"] == segments
        assert recovered.execute(topk_sql(query)).rows == expected

    def test_multiple_tables_recovered(self, rng):
        db = build_db(rng)
        db.execute(
            "CREATE TABLE other (id UInt64, label String, "
            "embedding Array(Float32), "
            f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
        )
        db.insert_rows("other", rows_for(rng, 0, 25))
        recovered = db.restart()
        assert sorted(e.schema.name for e in recovered.catalog.entries()) == [
            "docs", "other",
        ]
        assert recovered.describe("other")["rows_alive"] == 25

    def test_second_restart_is_stable(self, rng):
        db = build_db(rng)
        query = rng.normal(size=DIM).astype(np.float32)
        expected = db.execute(topk_sql(query)).rows
        once = db.restart()
        twice = once.restart()
        assert twice.execute(topk_sql(query)).rows == expected


class TestRecoveryObservability:
    def test_report_render_includes_spans(self, rng):
        db = build_db(rng)
        db.execute("CHECKPOINT")
        db.insert_rows("docs", rows_for(rng, 200, 20))
        recovered = db.restart()
        text = recovered.last_recovery.render()
        assert "RECOVERY" in text
        for name in ("recover", "load_checkpoint", "replay_wal"):
            assert name in text
        assert recovered.last_recovery.simulated_seconds > 0

    def test_metrics_exported(self, rng):
        db = build_db(rng)
        db.execute("CHECKPOINT")
        db.insert_rows("docs", rows_for(rng, 200, 20))
        recovered = db.restart()
        exported = recovered.export_metrics().as_dict()["counters"]
        assert exported["durability.recoveries"] == 1
        assert exported["durability.recovery_replayed_records"] > 0
        assert exported.get("durability.wal_appends", 0) == 0  # replay is not re-logged
        # The live engine's write-path metrics exist too.
        source = db.export_metrics().as_dict()["counters"]
        for name in ("durability.wal_appends", "durability.wal_bytes",
                     "durability.checkpoints"):
            assert source[name] > 0

    def test_recovery_charges_simulated_clock(self, rng):
        db = build_db(rng)
        recovered = BlendHouse.recover(db.store)
        # Cold segment loads + WAL reads all pass through the store.
        assert recovered.last_recovery.segments_loaded > 0
        assert recovered.clock.now > 0

    def test_recover_forces_durability_on(self, rng):
        db = build_db(rng)
        recovered = BlendHouse.recover(db.store)
        # A recovered engine logs its own writes: they survive the next crash.
        recovered.execute("DELETE FROM docs WHERE id = 50")
        again = BlendHouse.recover(recovered.store)
        alive = db.describe("docs")["rows_alive"] - 1
        assert again.describe("docs")["rows_alive"] == alive


class TestStatsRecovery:
    def test_statistics_and_dim_inference_survive(self, rng):
        db = BlendHouse()
        db.execute(
            "CREATE TABLE t (id UInt64, label String, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=8'))"
        )
        db.insert_rows("t", rows_for(rng, 0, 50))
        entry = db.table("t").entry
        recovered = db.restart()
        rentry = recovered.table("t").entry
        assert rentry.next_segment_seq == entry.next_segment_seq
        assert rentry.statistics.row_count == entry.statistics.row_count
        assert sorted(rentry.statistics.histograms) == sorted(
            entry.statistics.histograms
        )
        assert rentry.schema.vector_dim == entry.schema.vector_dim

    def test_cluster_centroids_survive(self, rng):
        db = BlendHouse()
        db.execute(
            "CREATE TABLE t (id UInt64, label String, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=8')) "
            "CLUSTER BY embedding INTO 2 BUCKETS"
        )
        db.insert_rows("t", rows_for(rng, 0, 60))
        centroids = db.table("t").writer._bucket_centroids
        assert centroids is not None
        recovered = db.restart()
        rcentroids = recovered.table("t").writer._bucket_centroids
        np.testing.assert_array_equal(
            np.asarray(centroids), np.asarray(rcentroids)
        )


ENGINES = {
    "core": BlendHouse,
    "clustered": lambda: ClusteredBlendHouse(read_workers=2),
    "fleet": lambda: FleetBlendHouse(
        fleet_config=FleetConfig(warehouses=2, workers_per_warehouse=2)
    ),
}


def fill_flat_t(db, rng, first_id, inserts=4):
    """CREATE a FLAT table ``t`` and run ``inserts`` 20-row inserts (one
    segment each)."""
    db.execute(
        "CREATE TABLE t (id UInt64, label String, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
    )
    for batch in range(inserts):
        db.insert_rows("t", rows_for(rng, first_id + 20 * batch, 20))


class TestIdsNeverRepeat:
    """A re-created table allocates segment ids past the dropped table's
    (DESIGN.md §7, "Ids never repeat"), so retiring one of the dropped
    table's segments can never delete one of the new table's payloads."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_pinned_compaction_inputs_retire_after_recreate(self, engine, rng):
        """A pin outlives compaction, DROP and re-CREATE; its release
        retires the dropped table's compaction inputs, which must not
        name the new table's payloads."""
        db = ENGINES[engine]()
        fill_flat_t(db, rng, 0)
        pin = db.table("t").manager.snapshot()
        db.compact("t")
        db.execute("DROP TABLE t")
        fill_flat_t(db, rng, 1000)
        pin.release()
        db.execute("CHECKPOINT")
        recovered = db.restart()
        assert recovered.describe("t")["rows_alive"] == 80
        # Compaction's output was seg-4: the new table starts at 5.
        live = recovered.table("t").manager.segment_ids()
        assert live == [f"t/seg-{seq:08d}" for seq in range(5, 9)]
        rows = recovered.execute(
            "SELECT id FROM t ORDER BY L2Distance(embedding, "
            f"{vector_sql(np.zeros(DIM))}) AS d LIMIT 100"
        ).rows
        assert sorted(row[0] for row in rows) == list(range(1000, 1080))

    def test_recreate_after_restart_continues_the_sequence(self, rng):
        """The checkpoint carries the dropped name's next sequence."""
        db = BlendHouse()
        fill_flat_t(db, rng, 0, inserts=3)
        db.execute("DROP TABLE t")
        db.execute("CHECKPOINT")
        recovered = db.restart()
        fill_flat_t(recovered, rng, 100, inserts=1)
        assert recovered.table("t").manager.segment_ids() == ["t/seg-00000003"]

    def test_recreate_after_replayed_drop_continues_the_sequence(self, rng):
        """The DROP's checkpoint never lands; WAL replay of the drop
        record restores the dropped name's next sequence."""
        registry = CrashPointRegistry()
        db = BlendHouse(durability=DurabilityConfig(crashpoints=registry))
        fill_flat_t(db, rng, 0, inserts=3)
        db.execute("CHECKPOINT")
        registry.arm("checkpoint.before_upload")
        with pytest.raises(InjectedCrash):
            db.execute("DROP TABLE t")
        registry.reset()
        recovered = BlendHouse.recover(db.store)
        assert "t" not in recovered.catalog
        fill_flat_t(recovered, rng, 100, inserts=1)
        assert recovered.table("t").manager.segment_ids() == ["t/seg-00000003"]


class TestSweep:
    """Each checkpoint deletes the payloads no live manifest holds
    (DESIGN.md §7, "Garbage collection"), so what a crash leaves in the
    store goes at the first checkpoint after recovery."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_crash_after_the_swap_leaves_no_orphans(self, engine, rng):
        """Measurement E: compaction's checkpoint dies after its pointer
        swap, before the inputs' payloads could go."""
        db = ENGINES[engine]()
        fill_flat_t(db, rng, 0)
        db._durability.crashpoints.arm("checkpoint.after_truncate")
        with pytest.raises(InjectedCrash):
            db.compact("t")
        assert len(payload_ids(db.store)) == 5
        recovered = type(db).recover(db.store)
        recovered.execute("CHECKPOINT")
        assert recovered.table("t").manager.segment_ids() == ["t/seg-00000004"]
        assert payload_ids(recovered.store) == {"t/seg-00000004"}
        assert recovered.describe("t")["rows_alive"] == 80

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unacknowledged_insert_leaves_no_payloads(self, engine, rng):
        """An INSERT that dies before its group commit wrote its segment
        but never logged it; recovery does not know it, the sweep does."""
        db = ENGINES[engine]()
        fill_flat_t(db, rng, 0, inserts=3)
        db._durability.crashpoints.arm("wal.before_flush")
        with pytest.raises(InjectedCrash):
            db.insert_rows("t", rows_for(rng, 60, 20))
        assert "t/seg-00000003" in payload_ids(db.store)
        recovered = type(db).recover(db.store)
        recovered.execute("CHECKPOINT")
        assert recovered.describe("t")["rows_alive"] == 60
        live = set(recovered.table("t").manager.segment_ids())
        assert payload_ids(recovered.store) == live
        assert "t/seg-00000003" not in live
