"""Tests for the per-table runtime (local index resolution)."""

import numpy as np
import pytest

from repro.core.database import BlendHouse


@pytest.fixture
def runtime(rng):
    db = BlendHouse()
    db.execute(
        "CREATE TABLE t (id UInt64, embedding Array(Float32), "
        "INDEX ann embedding TYPE IVFPQ('DIM=16', 'm=4'))"
    )
    db.insert_rows(
        "t",
        [{"id": i, "embedding": rng.normal(size=16).astype(np.float32)}
         for i in range(200)],
    )
    return db, db.table("t")


def resolve(table, segment):
    """Resolve ``segment``'s index under the current manifest's key."""
    return table.resolve_index_at(segment, table.manager.index_key(segment.segment_id))


class TestResolution:
    def test_freshly_built_index_served_from_memory(self, runtime, ):
        db, table = runtime
        segment = table.manager.segments()[0]
        before = db.clock.now
        index = resolve(table, segment)
        assert index is not None
        assert db.clock.now == before  # built_indexes path is free

    def test_cold_load_charges_and_memoizes(self, runtime):
        db, table = runtime
        segment = table.manager.segments()[0]
        table.writer.built_indexes.clear()
        before = db.clock.now
        index = resolve(table, segment)
        assert index is not None
        assert db.clock.now > before  # object-store fetch charged
        assert db.metrics.count("table.index_cold_loads") == 1
        mark = db.clock.now
        again = resolve(table, segment)
        assert again is index  # memoized
        assert db.clock.now == mark

    def test_missing_index_returns_none(self, runtime):
        db, table = runtime
        segment = table.manager.segments()[0]
        key = table.manager.index_key(segment.segment_id)
        table.writer.built_indexes.clear()
        db.store.delete(key)
        assert resolve(table, segment) is None

    def test_refiner_reattached_after_cold_load(self, runtime):
        """IVFPQ needs its segment-backed refiner rewired after
        deserialization; resolution must do it transparently."""
        db, table = runtime
        segment = table.manager.segments()[0]
        table.writer.built_indexes.clear()
        index = resolve(table, segment)
        assert index._refiner is not None
        query = segment.vectors()[5]
        result = index.search_with_filter(query, 1, nprobe=index.nlist)
        assert result.ids[0] == 5

    def test_compaction_retires_memoized_indexes(self, runtime):
        db, table = runtime
        # Fragment then compact.
        for i in range(4):
            db.execute(f"UPDATE t SET id = {i} WHERE id = {i}")
        keys_before = {
            sid: table.manager.index_key(sid)
            for sid in table.manager.segment_ids()
        }
        # Force cold loads so the memo is populated.
        table.writer.built_indexes.clear()
        for segment in table.manager.segments():
            resolve(table, segment)
        results = db.compact("t")
        assert results
        surviving = set(table.manager.segment_ids())
        for sid, key in keys_before.items():
            if sid not in surviving:
                assert key not in table._loaded_indexes
