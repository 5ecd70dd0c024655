"""Tests for scalar column I/O and the read-amplification model."""

import numpy as np
import pytest

from repro.core.database import BlendHouse
from repro.executor import columnio
from repro.executor.columnio import ColumnReader
from repro.storage.segment import Segment


@pytest.fixture
def segment():
    rng = np.random.default_rng(0)
    n = 1000
    return Segment.from_columns(
        "t/seg-0", "t",
        {"id": np.arange(n, dtype=np.uint64), "score": rng.random(n)},
        rng.normal(size=(n, 8)).astype(np.float32),
    )


def reader(clock, cost, read_opt=True):
    return ColumnReader(clock, cost, read_opt=read_opt)


class TestDataCorrectness:
    def test_fetch_returns_requested_rows(self, clock, cost, segment):
        r = reader(clock, cost)
        values = r.fetch(segment, "id", [5, 2, 9])
        np.testing.assert_array_equal(values, [5, 2, 9])

    def test_fetch_empty(self, clock, cost, segment):
        r = reader(clock, cost)
        assert list(r.fetch(segment, "id", [])) == []


class TestReadAmplification:
    def test_reduced_granularity_cheaper_for_few_rows(self, clock, cost, segment):
        baseline = reader(clock, cost, read_opt=False)
        t0 = clock.now
        baseline.fetch(segment, "id", [1, 2, 3])
        full_block = clock.now - t0

        optimized = reader(clock, cost)  # first read: a miss, ranged
        t1 = clock.now
        optimized.fetch(segment, "id", [1, 2, 3])
        ranged = clock.now - t1
        assert ranged < full_block

    def test_cache_makes_repeat_reads_ram_speed(self, clock, cost, segment):
        r = reader(clock, cost)
        r.fetch(segment, "id", [1, 2, 3])  # fill
        t0 = clock.now
        r.fetch(segment, "id", [4, 5, 6])  # hit
        cached = clock.now - t0
        assert cached < cost.object_store_latency_s

    def test_row_limit_bypasses_cache(self, monkeypatch, clock, cost, segment):
        monkeypatch.setattr(columnio, "CACHE_ROW_LIMIT", 10)
        r = reader(clock, cost)
        big = list(range(100))
        r.fetch(segment, "id", big)
        t0 = clock.now
        r.fetch(segment, "id", big)
        second = clock.now - t0
        # Still remote speed: the large read never entered the cache.
        assert second >= cost.object_store_latency_s

    def test_clear_cache_restores_remote_cost(self, clock, cost, segment):
        r = reader(clock, cost)
        r.fetch(segment, "id", [1])
        r.clear_cache()
        t0 = clock.now
        r.fetch(segment, "id", [1])
        assert clock.now - t0 >= cost.object_store_latency_s


class TestMetrics:
    def test_counters(self, clock, cost, segment, metrics):
        r = ColumnReader(clock, cost, metrics)
        r.fetch(segment, "id", [1])
        r.fetch(segment, "id", [2])
        assert metrics.count("columnio.cache_fills") == 1
        assert metrics.count("columnio.cache_hits") == 1


class TestRetiredSegments:
    def test_reader_keeps_nothing_by_retired_id(self):
        """A column's block facts live on its segment and die with it.
        The block cache is LRU-bounded: a block cached under a retired id
        is never read again (ids never repeat) and ages out."""
        db = BlendHouse()
        db.execute(
            "CREATE TABLE t (id UInt64, label String, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=4'))"
        )
        rng = np.random.default_rng(3)
        for batch in range(4):
            db.insert_rows("t", [
                {"id": 20 * batch + i, "label": "ab"[i % 2],
                 "embedding": rng.normal(size=4)}
                for i in range(20)
            ])
        retired = set(db.table("t").manager.segment_ids())
        db.execute(
            "SELECT id, label, d FROM t ORDER BY "
            "L2Distance(embedding, [0.0, 0.0, 0.0, 0.0]) AS d LIMIT 50"
        )
        assert db.metrics.count("columnio.cache_fills") > 0
        db.compact("t")
        db.execute("CHECKPOINT")
        assert not retired & set(db.table("t").manager.segment_ids())
        for name, value in vars(db.reader).items():
            if name != "_cache" and isinstance(value, (dict, list, set)):
                named = [sid for sid in retired for item in value if sid in str(item)]
                assert not named, f"ColumnReader.{name} names {named}"
