"""Tests for background compaction."""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.ingest.writer import IngestConfig, SegmentWriter
from repro.sqlparser.parser import parse_statement
from repro.storage import compaction
from repro.storage.compaction import Compactor
from repro.storage.lsm import SegmentManager
from repro.storage.objectstore import ObjectStore
from repro.vindex.registry import IndexSpec, deserialize_index


def make_world(clock, cost, columns="", index_type="FLAT", dim=8, max_segment_rows=50):
    """Table ``t`` (``id``, then ``columns``, then the vector), its writer
    and its compactor."""
    store = ObjectStore(clock, cost)
    ddl = parse_statement(f"CREATE TABLE t (id UInt64, {columns}embedding Array(Float32))")
    schema = TableSchema.from_ddl(
        ddl.name, ddl.columns, index_spec=IndexSpec(index_type=index_type, dim=dim)
    )
    entry = Catalog().create_table(schema)
    manager = SegmentManager()
    writer = SegmentWriter(
        entry, manager, store, clock, cost_model=cost,
        config=IngestConfig(max_segment_rows=max_segment_rows),
    )
    compactor = Compactor(entry=entry, manager=manager, store=store, clock=clock, cost=cost)
    return entry, manager, writer, compactor, store


@pytest.fixture
def setup(monkeypatch, clock, cost):
    monkeypatch.setattr(compaction, "FANOUT", 3)
    return make_world(clock, cost)


def ingest_batches(writer, batches: int, rows_per_batch: int = 40, dim: int = 8):
    rng = np.random.default_rng(0)
    counter = 0
    for _ in range(batches):
        rows = [
            {"id": counter + i, "embedding": rng.normal(size=dim)}
            for i in range(rows_per_batch)
        ]
        counter += rows_per_batch
        writer.ingest_rows(rows)


class TestFanoutTrigger:
    def test_merges_when_group_reaches_fanout(self, setup):
        entry, manager, writer, compactor, _ = setup
        ingest_batches(writer, 3)
        assert len(manager) == 3
        results = compactor.run_once()
        assert len(results) == 1
        assert results[0].rows_out == 120
        assert len(manager) == 1
        merged = manager.segments()[0]
        assert merged.meta.level == 1

    def test_no_merge_below_fanout(self, setup):
        _, manager, writer, compactor, _ = setup
        ingest_batches(writer, 2)
        assert compactor.run_once() == []
        assert len(manager) == 2

    def test_compact_all_converges(self, setup):
        _, manager, writer, compactor, _ = setup
        ingest_batches(writer, 9)
        compactor.compact_all()
        assert compactor.run_once() == []
        assert manager.alive_rows() == 9 * 40


class TestDeadRowCleanup:
    def test_dirty_segment_rewritten(self, setup):
        _, manager, writer, compactor, _ = setup
        ingest_batches(writer, 1)
        sid = manager.segment_ids()[0]
        manager.mark_deleted(sid, list(range(20)))  # 50% dead
        results = compactor.run_once()
        assert len(results) == 1
        assert results[0].dropped_dead_rows == 20
        assert manager.deleted_rows() == 0
        assert manager.alive_rows() == 20

    def test_clean_single_segment_untouched(self, setup):
        _, manager, writer, compactor, _ = setup
        ingest_batches(writer, 1)
        assert compactor.run_once() == []


class TestScalarMerge:
    def test_columns_keep_dtype_and_alive_values(self, monkeypatch, clock, cost):
        monkeypatch.setattr(compaction, "FANOUT", 3)
        _, manager, writer, compactor, _ = make_world(
            clock, cost, "score Float32, ts DateTime, label String, ", dim=4, max_segment_rows=30
        )
        rng = np.random.default_rng(0)
        writer.ingest_rows(
            [
                {"id": i, "score": i / 3, "ts": 10**12 + i, "label": f"row{i}",
                 "embedding": rng.normal(size=4)}
                for i in range(90)
            ]
        )
        inputs = manager.segments()
        manager.mark_deleted(inputs[1].segment_id, [0, 5, 29])
        before = {
            name: [inputs[0].scalar_column(name)[i] for i in range(30)]
            + [inputs[1].scalar_column(name)[i] for i in range(30) if i not in (0, 5, 29)]
            + [inputs[2].scalar_column(name)[i] for i in range(30)]
            for name in ("id", "score", "ts", "label")
        }
        compactor.run_once()
        (merged,) = manager.segments()
        for name in ("id", "score", "ts"):
            column = merged.scalar_column(name)
            want = np.asarray(before[name], dtype=inputs[0].scalar_column(name).dtype)
            assert column.dtype == want.dtype
            assert column.tobytes() == want.tobytes()
        assert merged.scalar_column("label") == before["label"]


class TestIndexLifecycle:
    def test_merged_segment_gets_fresh_index(self, setup):
        _, manager, writer, compactor, store = setup
        ingest_batches(writer, 3)
        compactor.run_once()
        merged_id = manager.segment_ids()[0]
        key = manager.index_key(merged_id)
        assert key is not None
        assert key in store

    def test_merged_ivf_index_uses_row_offsets(self, clock, cost):
        _, manager, writer, compactor, store = make_world(
            clock, cost, index_type="IVFFLAT", max_segment_rows=80
        )
        ingest_batches(writer, compaction.FANOUT, rows_per_batch=80)
        compactor.run_once()
        (segment,) = manager.segments()
        index = deserialize_index(store.get(manager.index_key(segment.segment_id)))
        result = index.search_with_filter(segment.vectors()[7], 1, nprobe=index.nlist)
        assert result.ids[0] == 7  # row offsets within the merged segment

    def test_retired_objects_deleted_from_store(self, setup):
        _, manager, writer, compactor, store = setup
        ingest_batches(writer, 3)
        old_ids = manager.segment_ids()
        old_keys = [manager.index_key(s) for s in old_ids]
        compactor.run_once()
        for key in old_keys:
            assert key not in store

    def test_retire_hooks_fired(self, setup):
        _, manager, writer, compactor, _ = setup
        ingest_batches(writer, 3)
        retired = []
        compactor.on_retire(lambda sid, key: retired.append(sid))
        compactor.run_once()
        assert len(retired) == 3


class TestCosts:
    def test_compaction_charges_simulated_time(self, setup, clock):
        _, _, writer, compactor, _ = setup
        ingest_batches(writer, 3)
        before = clock.now
        results = compactor.run_once()
        assert clock.now > before
        assert results[0].simulated_seconds > 0



def blob_rows(n: int, dim: int = 8, seed: int = 0) -> np.ndarray:
    """``n`` rows around 6 separated centres."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=4.0, size=(6, dim))
    return (centres[rng.integers(0, 6, n)] + rng.normal(size=(n, dim))).astype(np.float32)


def ingest_ivf(writer, batches: int, rows_per_batch: int, dim: int = 8):
    points = blob_rows(batches * rows_per_batch, dim)
    for start in range(0, len(points), rows_per_batch):
        writer.ingest_rows(
            [{"id": i, "embedding": points[i]} for i in range(start, start + rows_per_batch)]
        )


@pytest.fixture
def offered(monkeypatch):
    """What each merge hands the index build: ``(seeds, kmeans init)``."""
    import repro.vindex.ivf

    calls = []
    build, fit = compaction.build_segment_index, repro.vindex.ivf.kmeans

    def recording_build(*args):
        calls.append([args[5], None])
        return build(*args)

    def recording_fit(*args, **kwargs):
        if calls:
            calls[-1][1] = kwargs["init"]
        return fit(*args, **kwargs)

    monkeypatch.setattr(compaction, "build_segment_index", recording_build)
    monkeypatch.setattr(repro.vindex.ivf, "kmeans", recording_fit)
    return calls


class TestWarmMerge:
    """An IVF merge trains from the centroids its inputs hold, each
    ranked by the live rows of its cell (DESIGN.md §9, "k-means
    training")."""

    def world(self, clock, cost, rows):
        return make_world(clock, cost, index_type="IVFFLAT", max_segment_rows=rows)

    def input_indexes(self, manager, store):
        return [
            deserialize_index(store.get(manager.index_key(segment_id)))
            for segment_id in manager.segment_ids()
        ]

    def test_more_seeds_than_cells_keeps_the_most_populated(self, clock, cost, offered):
        # 4 × 200 rows train 5 cells each; 50 deletes leave 750 rows, 19 cells.
        _, manager, writer, compactor, store = self.world(clock, cost, 200)
        ingest_ivf(writer, 4, 200)
        inputs = self.input_indexes(manager, store)
        manager.mark_deleted(manager.segment_ids()[2], list(range(50)))
        alive = [manager.bitmap(sid).alive_mask() for sid in manager.segment_ids()]
        compactor.run_once()
        ((seeds, init),) = offered
        assert seeds.centroids.tobytes() == np.vstack([i._centroids for i in inputs]).tobytes()
        for cells, index, mask in zip(np.split(seeds.population, 4), inputs, alive):
            members = np.repeat(np.arange(index.nlist), np.diff(index._cell_ptr))
            assert cells.tolist() == np.bincount(
                members[mask[index._ids]], minlength=index.nlist
            ).tolist()
        (merged,) = manager.segments()
        assert merged.row_count == 750 and len(seeds.population) == 20
        nlist = deserialize_index(store.get(manager.index_key(merged.segment_id))).nlist
        assert nlist == 19
        # The least populated cell is dropped, the rest stay in input order.
        dropped = int(np.argsort(seeds.population, kind="stable")[0])
        assert init.tobytes() == np.delete(seeds.centroids, dropped, axis=0).tobytes()

    def test_fewer_seeds_than_cells_are_topped_up(self, clock, cost, offered):
        # 4 × 150 rows train 3 cells each; the 600-row merge wants 15.
        _, manager, writer, compactor, store = self.world(clock, cost, 150)
        ingest_ivf(writer, 4, 150)
        compactor.run_once()
        ((seeds, init),) = offered
        assert init.tobytes() == seeds.centroids.tobytes() and len(init) == 12
        (merged,) = manager.segments()
        merged_index = deserialize_index(store.get(manager.index_key(merged.segment_id)))
        assert merged_index.nlist == 15
        result = merged_index.search_with_filter(merged.vectors()[7], 1, nprobe=15)
        assert result.ids[0] == 7

    def test_an_input_with_every_row_deleted_offers_nothing(self, clock, cost, offered):
        _, manager, writer, compactor, store = self.world(clock, cost, 150)
        ingest_ivf(writer, 4, 150)
        inputs = self.input_indexes(manager, store)
        emptied = manager.segment_ids()[1]
        emptied_key = manager.index_key(emptied)
        manager.mark_deleted(emptied, list(range(150)))
        gets = []
        get = store.get
        store.get = lambda key: gets.append(key) or get(key)
        compactor.run_once()
        ((seeds, _),) = offered
        kept = [inputs[0], inputs[2], inputs[3]]
        assert seeds.centroids.tobytes() == np.vstack([i._centroids for i in kept]).tobytes()
        assert emptied_key not in gets and len(gets) == 3

    def test_an_input_with_no_index_offers_nothing(self, clock, cost, offered):
        entry, manager, writer, compactor, store = self.world(clock, cost, 150)
        spec, entry.schema.index_spec = entry.schema.index_spec, None
        ingest_ivf(writer, 1, 150)
        entry.schema.index_spec = spec
        points = blob_rows(450, seed=1)
        for start in range(0, 450, 150):
            writer.ingest_rows(
                [{"id": 150 + i, "embedding": points[i]} for i in range(start, start + 150)]
            )
        assert manager.index_key(manager.segment_ids()[0]) is None
        inputs = [
            deserialize_index(store.get(manager.index_key(sid)))
            for sid in manager.segment_ids()[1:]
        ]
        compactor.run_once()
        ((seeds, _),) = offered
        assert seeds.centroids.tobytes() == np.vstack([i._centroids for i in inputs]).tobytes()

    def test_no_same_type_index_trains_cold(self, clock, cost, offered):
        entry, manager, writer, compactor, _ = self.world(clock, cost, 150)
        spec = entry.schema.index_spec
        entry.schema.index_spec = IndexSpec(index_type="FLAT", dim=8)
        ingest_ivf(writer, 4, 150)
        entry.schema.index_spec = spec
        compactor.run_once()
        assert offered == [[None, None]]


class TestWarmMergeAcrossRestart:
    """A merge reads its seeds from the indexes the process holds, or
    from the store when it holds none; both write the same image."""

    def merge(self, restart_after: int):
        from repro.core.database import BlendHouse

        db = BlendHouse(ingest_config=IngestConfig(max_segment_rows=150))
        db.execute(
            "CREATE TABLE t (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE IVFFLAT('DIM=8'))"
        )
        points = blob_rows(600)
        for start in range(0, 600, 150):
            if start == restart_after:
                db.checkpoint()
                db = db.restart()
            db.insert_columns("t", {"id": np.arange(start, start + 150)}, points[start:start + 150])
        db.execute("DELETE FROM t WHERE id >= 140 AND id < 170")
        manager = db.table("t").manager
        input_keys = {manager.index_key(sid) for sid in manager.segment_ids()}
        reads, get = [], db.store.get

        def recording_get(key):
            payload = get(key)
            if key in input_keys:
                reads.append(len(payload))
            return payload

        db.store.get = recording_get
        (result,) = db.compact("t")
        (segment,) = manager.segments()
        return get(manager.index_key(segment.segment_id)), result.simulated_seconds, reads

    def test_resident_and_stored_seeds_write_the_same_image(self):
        resident, resident_s, resident_reads = self.merge(restart_after=None)
        stored, stored_s, stored_reads = self.merge(restart_after=450)
        assert stored == resident
        assert resident_reads == [] and len(stored_reads) == 3
        # Each read is priced into the merge.
        from repro.simulate.costmodel import DeviceCostModel

        read_s = sum(DeviceCostModel().object_store_read(n) for n in stored_reads)
        assert stored_s == pytest.approx(resident_s + read_s, rel=1e-9)
