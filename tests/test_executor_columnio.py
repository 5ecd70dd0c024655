"""Tests for scalar column I/O and the read-amplification model."""

import numpy as np
import pytest

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
