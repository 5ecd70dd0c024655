"""Checkpoint tests: atomic swap, triggers, WAL truncation, the payload sweep."""

import pickle
import zlib

import numpy as np
import pytest

from repro.core.database import BlendHouse
from repro.durability import manager
from repro.durability.checkpoint import load_checkpoint, load_pointer
from repro.errors import RecoveryError
from tests.helpers import payload_ids


def small_db(rows=60, dim=8):
    db = BlendHouse()
    db.execute(
        "CREATE TABLE t (id UInt64, label String, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={dim}'))"
    )
    rng = np.random.default_rng(7)
    db.insert_rows(
        "t",
        [
            {"id": i, "label": "ab"[i % 2], "embedding": rng.normal(size=dim)}
            for i in range(rows)
        ],
    )
    return db


class TestCheckpointWrite:
    def test_checkpoint_sql_publishes_current_pointer(self):
        db = small_db()
        assert load_pointer(db.store) is None
        ack = db.execute("CHECKPOINT")
        assert ack["checkpoint"] == 1
        pointer = load_pointer(db.store)
        assert pointer["checkpoint_id"] == 1
        data = load_checkpoint(db.store, pointer)
        assert [t["name"] for t in data["tables"]] == ["t"]
        assert data["wal_lsn"] == ack["wal_lsn"]

    def test_checkpoint_truncates_wal(self):
        db = small_db()
        assert db.store.list_keys("wal/") != []
        db.execute("CHECKPOINT")
        assert db.store.list_keys("wal/") == []
        assert db.metrics.count("durability.wal_truncated_chunks") > 0

    def test_superseded_checkpoints_deleted(self):
        db = small_db()
        db.execute("CHECKPOINT")
        db.insert_rows("t", [{"id": 100, "label": "a",
                              "embedding": np.zeros(8, dtype=np.float32)}])
        db.execute("CHECKPOINT")
        keys = db.store.list_keys("checkpoints/")
        checkpointer = db._durability.checkpointer
        assert sorted(keys) == sorted(
            [checkpointer.data_key(2), checkpointer.pointer_key]
        )

    def test_checkpoint_metrics_and_span(self):
        db = small_db()
        db.execute("CHECKPOINT")
        assert db.metrics.count("durability.checkpoints") == 1
        assert db.metrics.count("durability.checkpoint_bytes") > 0
        span = db.tracer.last_root()
        assert span is not None and "checkpoint" in span.render()

    def test_wal_bytes_trigger(self, monkeypatch):
        monkeypatch.setattr(manager, "CHECKPOINT_WAL_BYTES", 1)
        db = small_db()
        # Every statement boundary exceeds the 1-byte threshold.
        assert db.metrics.count("durability.checkpoints") >= 2
        assert db.durability_status()["bytes_since_checkpoint"] == 0


class TestCompactionTrigger:
    def _fragmented(self):
        db = small_db(rows=40)
        db.execute("DELETE FROM t WHERE id < 30")
        return db

    def test_compaction_checkpoints_by_default(self):
        db = self._fragmented()
        results = db.compact("t")
        assert results
        assert db.metrics.count("durability.checkpoints") == 1

    def test_deferred_gc_holds_until_checkpoint(self):
        db = self._fragmented()
        before = {key for key in db.store if key.startswith(("segments/", "indexes/"))}
        inputs = set(db.table("t").manager.segment_ids())
        # The compactor alone: db.compact() would checkpoint right after.
        results = db.table("t").compactor.compact_all()
        assert results
        # Retired inputs still named by the last recoverable state: their
        # payloads must survive until a checkpoint covers the swap.
        assert before <= set(db.store)
        db.execute("CHECKPOINT")
        assert db.metrics.count("durability.gc_deleted_objects") > 0
        live = set(db.table("t").manager.segment_ids())
        assert not live & inputs
        assert payload_ids(db.store) == live  # inputs gone, output kept

    def test_pinned_inputs_outlive_the_checkpoint(self):
        """A pin keeps compaction's inputs strong, so the compaction's
        checkpoint keeps their payloads; the first checkpoint after the
        release deletes them."""
        db = self._fragmented()
        inputs = set(db.table("t").manager.segment_ids())
        with db.table("t").manager.snapshot():
            db.compact("t")
            live = set(db.table("t").manager.segment_ids())
            assert not live & inputs
            assert payload_ids(db.store) == live | inputs
        db.execute("CHECKPOINT")
        assert payload_ids(db.store) == live

    def test_drop_table_checkpoint_cleans_store_immediately(self):
        db = small_db()
        db.execute("DROP TABLE t")
        assert db.store.list_keys("segments/") == []
        assert db.store.list_keys("indexes/") == []
        assert payload_ids(db.store) == set()


class TestCheckpointLoad:
    def test_load_pointer_none_on_fresh_store(self, store):
        assert load_pointer(store) is None

    def test_crc_mismatch_raises(self):
        db = small_db()
        db.execute("CHECKPOINT")
        pointer = load_pointer(db.store)
        body = bytearray(db.store.get(pointer["key"]))
        body[-1] ^= 0xFF
        db.store.put(pointer["key"], bytes(body))
        with pytest.raises(RecoveryError):
            load_checkpoint(db.store, pointer)

    def test_missing_body_raises(self):
        db = small_db()
        db.execute("CHECKPOINT")
        pointer = load_pointer(db.store)
        db.store.delete(pointer["key"])
        with pytest.raises(RecoveryError):
            load_checkpoint(db.store, pointer)

    def test_body_of_another_format_raises(self):
        """A body without ``next_seqs`` (format 1) fails the format
        check, not a key lookup."""
        db = small_db()
        db.execute("CHECKPOINT")
        pointer = load_pointer(db.store)
        data = pickle.loads(db.store.get(pointer["key"]))
        del data["next_seqs"]
        data["format"] = 1
        body = pickle.dumps(data)
        db.store.put(pointer["key"], body)
        pointer["crc"] = zlib.crc32(body) & 0xFFFFFFFF
        with pytest.raises(RecoveryError, match="format 1"):
            load_checkpoint(db.store, pointer)
