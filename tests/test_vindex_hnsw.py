"""Tests for HNSW, including the native incremental iterator."""

import numpy as np
import pytest

from repro.errors import IndexParameterError
from repro.vindex.hnsw import HNSWIndex


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return rng.normal(size=(500, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def index(data):
    idx = HNSWIndex(dim=16, m=8, ef_construction=64, seed=0)
    idx.add_with_ids(data, np.arange(data.shape[0]))
    return idx


def truth_ids(data, query, k):
    return np.argsort(np.linalg.norm(data - query, axis=1))[:k]


class TestRecall:
    def test_self_query_found(self, index, data):
        result = index.search_with_filter(data[13], 1, ef_search=32)
        assert result.ids[0] == 13

    def test_batch_recall(self, index, data):
        rng = np.random.default_rng(5)
        queries = data[rng.choice(len(data), 30, replace=False)] + 0.02
        hits = 0
        for q in queries:
            want = set(truth_ids(data, q, 10).tolist())
            got = index.search_with_filter(q, 10, ef_search=64)
            hits += len(set(got.ids.tolist()) & want)
        assert hits / 300 > 0.9

    def test_recall_improves_with_ef(self, index, data):
        rng = np.random.default_rng(6)
        queries = data[rng.choice(len(data), 20, replace=False)] + 0.05

        def recall(ef):
            hits = 0
            for q in queries:
                want = set(truth_ids(data, q, 10).tolist())
                got = index.search_with_filter(q, 10, ef_search=ef)
                hits += len(set(got.ids.tolist()) & want)
            return hits / 200

        assert recall(128) >= recall(10)

    def test_distances_sorted_and_true_l2(self, index, data):
        query = data[0] + 0.1
        result = index.search_with_filter(query, 10, ef_search=64)
        assert np.all(np.diff(result.distances) >= 0)
        # Distances must be true L2, not squared.
        expected = np.linalg.norm(data[result.ids[0]] - query)
        assert result.distances[0] == pytest.approx(expected, rel=1e-4)


class TestFiltering:
    def test_bitset_respected(self, index, data):
        bitset = np.zeros(len(data), dtype=bool)
        bitset[::5] = True
        result = index.search_with_filter(data[0], 10, bitset=bitset, ef_search=64)
        assert all(i % 5 == 0 for i in result.ids.tolist())
        assert len(result) == 10

    def test_sparse_bitset_widens_beam(self, index, data):
        bitset = np.zeros(len(data), dtype=bool)
        bitset[:12] = True  # only 12 allowed rows
        result = index.search_with_filter(data[100], 10, bitset=bitset, ef_search=16)
        assert len(result) == 10
        assert set(result.ids.tolist()) <= set(range(12))


class TestIterator:
    def test_batches_are_distance_ordered(self, index, data):
        iterator = index.search_iterator(data[0], batch_size=7, ef_search=32)
        seen = []
        for _ in range(5):
            batch = iterator.next_batch()
            seen.extend(batch.distances.tolist())
        assert all(seen[i] <= seen[i + 1] + 1e-6 for i in range(len(seen) - 1))

    def test_no_duplicates_across_batches(self, index, data):
        iterator = index.search_iterator(data[0], batch_size=10)
        ids = []
        for _ in range(10):
            ids.extend(iterator.next_batch().ids.tolist())
        assert len(ids) == len(set(ids))

    def test_iterator_with_bitset(self, index, data):
        bitset = np.zeros(len(data), dtype=bool)
        bitset[::2] = True
        iterator = index.search_iterator(data[0], bitset=bitset, batch_size=8)
        batch = iterator.next_batch()
        assert all(i % 2 == 0 for i in batch.ids.tolist())

    def test_exhaustion(self, data):
        small = HNSWIndex(dim=16, m=4, ef_construction=32, seed=0)
        small.add_with_ids(data[:20], np.arange(20))
        iterator = small.search_iterator(data[0], batch_size=8)
        total = []
        while not iterator.exhausted:
            batch = iterator.next_batch()
            if len(batch) == 0:
                break
            total.extend(batch.ids.tolist())
        assert sorted(total) == list(range(20))

    def test_empty_index_iterator_yields_nothing(self, data):
        iterator = HNSWIndex(dim=16).search_iterator(data[0], batch_size=8)
        assert iterator.exhausted
        assert len(iterator.next_batch()) == 0

    def test_iterator_matches_oneshot_prefix(self, index, data):
        query = data[77] + 0.03
        oneshot = index.search_with_filter(query, 20, ef_search=128)
        iterator = index.search_iterator(query, batch_size=10, ef_search=128)
        streamed = np.concatenate(
            [iterator.next_batch().ids, iterator.next_batch().ids]
        )
        overlap = len(set(streamed.tolist()) & set(oneshot.ids.tolist()))
        assert overlap >= 16  # near-identical top-20 sets

    def test_bad_batch_size(self, index, data):
        with pytest.raises(IndexParameterError):
            index.search_iterator(data[0], batch_size=0)


class TestLifecycle:
    def test_incremental_adds(self, data):
        idx = HNSWIndex(dim=16, m=8, ef_construction=48, seed=1)
        idx.add_with_ids(data[:100], np.arange(100))
        idx.add_with_ids(data[100:200], np.arange(100, 200))
        assert idx.ntotal == 200
        result = idx.search_with_filter(data[150], 1, ef_search=64)
        assert result.ids[0] == 150

    def test_parameter_validation(self):
        with pytest.raises(IndexParameterError):
            HNSWIndex(dim=8, m=1)
        with pytest.raises(IndexParameterError):
            HNSWIndex(dim=8, ef_construction=0)

    def test_serialization_roundtrip(self, index, data):
        from repro.vindex.registry import deserialize_index, serialize_index

        restored = deserialize_index(serialize_index(index))
        a = index.search_with_filter(data[9], 5, ef_search=50)
        b = restored.search_with_filter(data[9], 5, ef_search=50)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_memory_accounts_links(self, index, data):
        assert index.memory_bytes() > data.nbytes
