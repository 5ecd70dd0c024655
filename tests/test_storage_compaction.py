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

    def test_entry_segment_ids_updated(self, setup):
        entry, manager, writer, compactor, _ = setup
        ingest_batches(writer, 3)
        compactor.run_once()
        assert set(entry.segment_ids) == set(manager.segment_ids())
