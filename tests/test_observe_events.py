"""Structured event log: ring semantics, the event-type catalogue, and
engine emission.

The integration half drives the real engine — ingest, queries,
checkpoints, compaction — and asserts the control-plane transitions
show up as typed events in order, since the event log's whole value is
answering "what happened, when" after the fact.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.database import BlendHouse
from repro.observe.events import EVENT_TYPES, Event, EventLog, emit_event
from repro.simulate.metrics import MetricRegistry
from repro.storage.cache import (
    HierarchicalIndexCache,
    LocalDisk,
    LRUCache,
    object_size,
)


@pytest.fixture
def log(clock):
    return EventLog(clock)


class TestEventLog:
    def test_emit_records_clock_timestamp_and_seq(self, clock, log):
        clock.advance(1.5)
        event = log.emit("manifest.publish", manifest_id=3)
        assert event.timestamp == pytest.approx(1.5)
        assert event.seq == 0
        assert log.emit("snapshot.pin").seq == 1

    def test_ring_bounds_retention_and_counts_drops(self, clock):
        log = EventLog(clock, max_events=4)
        for i in range(10):
            log.emit("cache.eviction", i=i)
        assert len(log.events()) == 4
        assert log.dropped == 6
        # Stream accounting survives the wrap.
        assert log.count("cache.eviction") == 10
        assert [event.fields["i"] for event in log.events()] == [6, 7, 8, 9]

    def test_max_events_must_be_positive(self, clock):
        with pytest.raises(ValueError):
            EventLog(clock, max_events=0)

    def test_filter_and_last(self, log):
        log.emit("wal.group_commit", nbytes=10)
        log.emit("checkpoint.swap", checkpoint_id=1)
        log.emit("wal.group_commit", nbytes=20)
        commits = log.events("wal.group_commit")
        assert [event.fields["nbytes"] for event in commits] == [10, 20]
        assert log.last("checkpoint.swap").fields["checkpoint_id"] == 1
        assert log.last("compaction.start") is None

    def test_summary_totals_by_type(self, log):
        log.emit("snapshot.pin")
        log.emit("snapshot.pin")
        log.emit("snapshot.unpin")
        summary = log.summary()
        assert summary["total"] == 3
        assert summary["by_type"] == {"snapshot.pin": 2, "snapshot.unpin": 1}

    def test_dump_jsonl_roundtrip(self, tmp_path, log):
        log.emit("compaction.start", inputs=[1, 2])
        log.emit("compaction.finish", output_segment_id=3)
        path = tmp_path / "events.jsonl"
        assert log.dump_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["type"] for line in lines] == [
            "compaction.start", "compaction.finish",
        ]

    def test_reserved_keys_win_over_field_collisions(self, clock, log):
        event = Event(0, 1.0, "x", fields={"seq": 99, "custom": 1})
        as_dict = event.to_dict()
        assert as_dict["seq"] == 0 and as_dict["custom"] == 1


def _emitted_types():
    """Every event-type literal passed to ``emit_event`` (second
    argument) or ``<log>.emit`` (first) anywhere under ``src/repro``."""
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "emit_event":
                args = node.args[1:2]
            elif isinstance(func, ast.Attribute) and func.attr == "emit":
                args = node.args[:1]
            else:
                continue
            found.update(
                arg.value for arg in args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
    return found


def test_event_types_are_exactly_what_src_emits():
    assert len(EVENT_TYPES) == len(set(EVENT_TYPES))
    assert _emitted_types() == set(EVENT_TYPES)


class TestEmitEventHelper:
    def test_noop_without_attached_log(self):
        registry = MetricRegistry()
        emit_event(registry, "cache.eviction", key="k")  # must not raise
        assert registry.events is None

    def test_emits_through_attached_log(self, clock):
        registry = MetricRegistry()
        registry.events = EventLog(clock)
        emit_event(registry, "cache.eviction", key="k")
        assert registry.events.count("cache.eviction") == 1


class TestEngineEmission:
    """The wired subsystems actually emit at their transitions."""

    def make_db(self, **kwargs):
        rng = np.random.default_rng(5)
        db = BlendHouse(**kwargs)
        db.execute(
            "CREATE TABLE t (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=8'))"
        )
        # Four segments: enough inputs for the compaction fanout policy.
        db.table("t").writer.config.max_segment_rows = 30
        db.insert_rows(
            "t",
            [
                {"id": i, "embedding": rng.normal(size=8).astype(np.float32)}
                for i in range(120)
            ],
        )
        return db

    def query(self, db, seed=3):
        query = np.random.default_rng(seed).normal(size=8).astype(np.float32)
        vector = "[" + ",".join(f"{v:.5f}" for v in query) + "]"
        return db.execute(
            f"SELECT id, dist FROM t ORDER BY "
            f"L2Distance(embedding, {vector}) AS dist LIMIT 3"
        )

    def test_ingest_publishes_manifest(self):
        db = self.make_db()
        publishes = db.events.events("manifest.publish")
        assert publishes, "ingest must emit manifest.publish"
        assert publishes[-1].fields["table"] == "t"
        assert publishes[-1].fields["manifest_id"] >= 1

    def test_query_pins_and_unpins_snapshot(self):
        db = self.make_db()
        before_pin = db.events.count("snapshot.pin")
        before_unpin = db.events.count("snapshot.unpin")
        self.query(db)
        assert db.events.count("snapshot.pin") == before_pin + 1
        assert db.events.count("snapshot.unpin") == before_unpin + 1

    def test_cache_promotion_and_eviction_events(self, clock, cost, store):
        # The tiered index cache (worker read path) emits promotions on
        # every memory fill and evictions on capacity displacement.
        registry = MetricRegistry()
        registry.events = EventLog(clock)
        memory = LRUCache(24, size_of=object_size)  # fits one value
        disk = LocalDisk(clock, 1 << 20, cost, registry)
        cache = HierarchicalIndexCache(
            clock, memory, disk, store, deserialize=bytes,
            cost_model=cost, metrics=registry,
        )
        store.put("idx-a", b"x" * 16)
        store.put("idx-b", b"y" * 16)

        cache.get("idx-a")  # remote miss -> memory fill
        promotion = registry.events.last("cache.promotion")
        assert promotion.fields["tier"] == "memory"
        assert promotion.fields["source"] == "remote"

        cache.get("idx-b")  # displaces idx-a from the memory tier
        eviction = registry.events.last("cache.eviction")
        assert eviction.fields["tier"] == "memory"
        assert eviction.fields["key"] == "idx-a"

        cache.get("idx-a")  # comes back from disk this time
        assert registry.events.last("cache.promotion").fields["source"] == "disk"

    def test_wal_and_checkpoint_events(self):
        db = self.make_db()
        assert db.events.count("wal.group_commit") > 0
        db.checkpoint(reason="test")
        swaps = db.events.events("checkpoint.swap")
        assert swaps and swaps[-1].fields["reason"] == "test"

    def test_compaction_emits_start_and_finish(self):
        db = self.make_db()
        db.compact("t")
        starts = db.events.events("compaction.start")
        finishes = db.events.events("compaction.finish")
        assert starts and finishes
        assert finishes[-1].fields["rows_out"] > 0
        # finish carries the published output segment.
        assert finishes[-1].fields["output_segment_id"]

    def test_retire_events_after_compaction_unpins(self):
        db = self.make_db()
        db.compact("t")
        retired = db.events.events("manifest.retire")
        assert retired, "compaction must retire the merged input segments"

    def test_events_ride_export_dict(self):
        db = self.make_db()
        self.query(db)
        snapshot = db.export_metrics().as_dict()
        assert snapshot["events"]["total"] == db.events.summary()["total"]
        assert snapshot["events"]["by_type"]["snapshot.pin"] >= 1

    def test_ordering_is_chronological(self):
        db = self.make_db()
        self.query(db)
        db.checkpoint(reason="order")
        events = db.events.events()
        assert all(
            a.timestamp <= b.timestamp and a.seq < b.seq
            for a, b in zip(events, events[1:])
        )
