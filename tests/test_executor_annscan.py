"""Unit tests for the ANN physical scan operators."""

import numpy as np
import pytest

from repro.executor.annscan import (
    ScanCharger,
    search_iterator_op,
    search_with_filter_op,
    search_with_range_op,
)
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.segment import Segment
from repro.vindex.flat import FlatIndex
from repro.vindex.ivf import IVFFlatIndex
from repro.vindex.ivfpq import IVFPQIndex

DIM = 8
N = 120


@pytest.fixture
def segment():
    rng = np.random.default_rng(0)
    return Segment.from_columns(
        "t/s0", "t", {"id": np.arange(N, dtype=np.uint64)},
        rng.normal(size=(N, DIM)).astype(np.float32),
    )


@pytest.fixture
def flat_index(segment):
    index = FlatIndex(dim=DIM)
    index.add_with_ids(segment.vectors(), np.arange(N))
    return index


def charger(clock, index_type=None):
    return ScanCharger(
        clock=clock, cost=DeviceCostModel(), metrics=MetricRegistry(),
        dim=DIM, index_type=index_type,
    )


def exact(segment):
    """The provider a segment without a resolved index falls back to:
    a FLAT view of its own vectors."""
    return FlatIndex.view(segment.vectors(), "l2")


class TestBruteForce:
    def test_matches_numpy(self, segment, clock):
        query = segment.vectors()[5] + 0.01
        result = search_with_filter_op(exact(segment), query, 5, None, charger(clock))
        expected = np.argsort(
            np.linalg.norm(segment.vectors() - query, axis=1)
        )[:5]
        np.testing.assert_array_equal(result.ids, expected)

    def test_allowed_mask(self, segment, clock):
        allowed = np.zeros(N, dtype=bool)
        allowed[10:20] = True
        result = search_with_filter_op(
            exact(segment), segment.vectors()[0], 5, allowed, charger(clock)
        )
        assert set(result.ids.tolist()) <= set(range(10, 20))

    def test_empty_mask(self, segment, clock):
        result = search_with_filter_op(
            exact(segment), segment.vectors()[0], 5,
            np.zeros(N, dtype=bool), charger(clock),
        )
        assert len(result) == 0

    def test_charges_full_scan(self, segment, clock):
        before = clock.now
        search_with_filter_op(
            exact(segment), segment.vectors()[0], 5, None, charger(clock)
        )
        cost = DeviceCostModel()
        assert clock.now - before == pytest.approx(cost.distance_cost(N, DIM))

    def test_view_shares_the_segment_vectors(self, segment):
        view = exact(segment)
        assert view._vectors is segment.vectors()
        assert view.ntotal == N


class TestSearchWithFilterOp:
    def test_provider_path(self, segment, flat_index, clock):
        result = search_with_filter_op(
            flat_index, segment.vectors()[3], 4, None, charger(clock, "FLAT"),
        )
        assert result.ids[0] == 3

    def test_none_provider_falls_back(self, segment, clock, metrics):
        c = ScanCharger(clock=clock, cost=DeviceCostModel(), metrics=metrics,
                        dim=DIM, index_type=None)
        result = search_with_filter_op(
            exact(segment), segment.vectors()[3], 4, None, c,
        )
        assert result.ids[0] == 3
        assert metrics.count("annscan.brute_force_rows") == N

    def test_pq_charges_adc_and_refine(self, segment, clock):
        index = IVFPQIndex(dim=DIM, nlist=4, m=4)
        index.train(segment.vectors())
        index.add_with_ids(segment.vectors(), np.arange(N))
        index.set_refiner(lambda ids: segment.vectors_at(ids))
        c = charger(clock, index_type="IVFPQ")
        before = clock.now
        search_with_filter_op(
            index, segment.vectors()[0], 4, None, c, sigma=2.0, nprobe=4,
        )
        assert clock.now > before  # ADC + refine charged


class TestRangeOp:
    def test_provider_and_fallback_agree(self, segment, flat_index, clock):
        query = segment.vectors()[0]
        radius = 3.0
        with_index = search_with_range_op(
            flat_index, query, radius, None, charger(clock, "FLAT")
        )
        without = search_with_range_op(
            exact(segment), query, radius, None, charger(clock)
        )
        assert set(with_index.ids.tolist()) == set(without.ids.tolist())

    def test_bitset_respected_in_fallback(self, segment, clock):
        allowed = np.zeros(N, dtype=bool)
        allowed[::2] = True
        result = search_with_range_op(
            exact(segment), segment.vectors()[0], 100.0, allowed, charger(clock),
        )
        assert all(i % 2 == 0 for i in result.ids.tolist())


class TestIteratorOp:
    def test_brute_iterator_streams_sorted(self, segment, clock):
        iterator = search_iterator_op(
            exact(segment), segment.vectors()[0], None, charger(clock), 10,
        )
        distances = []
        while not iterator.exhausted:
            batch = iterator.next_batch()
            if len(batch) == 0:
                break
            distances.extend(batch.distances.tolist())
        assert distances == sorted(distances)
        assert len(distances) == N

    def test_charging_iterator_matches_cumulative_visits(self, segment):
        """Charged compute equals the iterator's cumulative visit count —
        deltas are charged exactly once, including restart re-scans."""
        index = IVFFlatIndex(dim=DIM, nlist=4)
        index.train(segment.vectors())
        index.add_with_ids(segment.vectors(), np.arange(N))
        clock = SimulatedClock()
        c = charger(clock, "IVFFLAT")
        iterator = search_iterator_op(index, segment.vectors()[0], None, c, 10)
        batch = iterator.next_batch()
        for _ in range(3):
            batch = iterator.next_batch()
        assert batch.visited > N  # restarts re-scanned rows
        cost = DeviceCostModel()
        expected = cost.distance_cost(batch.visited, DIM)
        assert clock.now == pytest.approx(expected)

    def test_iterator_respects_bitset(self, segment, flat_index, clock):
        allowed = np.zeros(N, dtype=bool)
        allowed[:30] = True
        iterator = search_iterator_op(
            flat_index, segment.vectors()[0], allowed, charger(clock, "FLAT"), 8,
        )
        collected = []
        for _ in range(10):
            if iterator.exhausted:
                break
            batch = iterator.next_batch()
            if len(batch) == 0:
                break
            collected.extend(batch.ids.tolist())
        assert set(collected) == set(range(30))
