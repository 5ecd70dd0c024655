"""Tests for the FLAT (exact) index."""

import numpy as np
import pytest

from repro.errors import IndexParameterError
from repro.vindex.flat import FlatIndex


@pytest.fixture
def index(vectors):
    idx = FlatIndex(dim=16)
    idx.add_with_ids(vectors, np.arange(vectors.shape[0]))
    return idx


class TestExactness:
    def test_top1_is_exact(self, index, vectors):
        result = index.search_with_filter(vectors[5], 1)
        assert result.ids[0] == 5
        assert result.distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_topk_matches_numpy(self, index, vectors):
        query = vectors[0] + 0.1
        expected = np.argsort(np.linalg.norm(vectors - query, axis=1))[:10]
        result = index.search_with_filter(query, 10)
        np.testing.assert_array_equal(result.ids, expected)

    def test_distances_ascending(self, index, vectors):
        result = index.search_with_filter(vectors[3], 20)
        assert np.all(np.diff(result.distances) >= 0)

    def test_visited_equals_ntotal(self, index, vectors):
        result = index.search_with_filter(vectors[0], 5)
        assert result.visited == vectors.shape[0]


class TestFiltering:
    def test_bitset_respected(self, index, vectors):
        bitset = np.zeros(vectors.shape[0], dtype=bool)
        bitset[::3] = True
        result = index.search_with_filter(vectors[0], 10, bitset=bitset)
        assert all(i % 3 == 0 for i in result.ids.tolist())

    def test_empty_bitset_returns_empty(self, index, vectors):
        bitset = np.zeros(vectors.shape[0], dtype=bool)
        result = index.search_with_filter(vectors[0], 10, bitset=bitset)
        assert len(result) == 0

    def test_short_bitset_rejected(self, index, vectors):
        with pytest.raises(IndexParameterError):
            index.search_with_filter(vectors[0], 5, bitset=np.ones(3, dtype=bool))


class TestRangeSearch:
    def test_range_matches_threshold(self, index, vectors):
        query = vectors[7]
        distances = np.linalg.norm(vectors - query, axis=1)
        radius = float(np.sort(distances)[15])
        result = index.search_with_range(query, radius)
        assert len(result) == 16  # the 15 nearest plus itself
        assert np.all(result.distances <= radius + 1e-6)

    def test_negative_radius_keeps_no_row(self, index, vectors):
        # An l2 distance is never negative, so the predicate is false
        # everywhere; every allowed row is still scored.
        result = index.search_with_range(vectors[0], -1.0)
        assert len(result) == 0
        assert result.visited == vectors.shape[0]

    def test_range_with_bitset(self, index, vectors):
        bitset = np.zeros(vectors.shape[0], dtype=bool)
        bitset[:10] = True
        result = index.search_with_range(vectors[0], 100.0, bitset=bitset)
        assert set(result.ids.tolist()) <= set(range(10))
        assert result.visited == 10  # only the allowed rows are scored


class TestIterator:
    def test_scores_each_allowed_row_once(self, index, vectors):
        """Batches are slices of one sort over the allowed rows, so the
        visited count is those rows on every batch: nothing is re-scanned."""
        bitset = np.zeros(vectors.shape[0], dtype=bool)
        bitset[::3] = True
        allowed = int(bitset.sum())
        iterator = index.search_iterator(vectors[0], bitset=bitset, batch_size=8)
        ids, visited = [], set()
        while not iterator.exhausted:
            batch = iterator.next_batch()
            ids.extend(batch.ids.tolist())
            visited.add(batch.visited)
        assert visited == {allowed}
        top = index.search_with_filter(vectors[0], allowed, bitset=bitset)
        assert ids == top.ids.tolist()


class TestLifecycle:
    def test_id_count_mismatch_rejected(self, vectors):
        idx = FlatIndex(dim=16)
        with pytest.raises(IndexParameterError):
            idx.add_with_ids(vectors, np.arange(3))

    def test_wrong_dim_rejected(self, index):
        with pytest.raises(IndexParameterError):
            index.search_with_filter(np.zeros(8, dtype=np.float32), 1)

    def test_empty_index_returns_empty(self):
        idx = FlatIndex(dim=4)
        result = idx.search_with_filter(np.zeros(4, dtype=np.float32), 3)
        assert len(result) == 0

    def test_custom_ids(self, vectors):
        idx = FlatIndex(dim=16)
        ids = np.arange(vectors.shape[0]) * 10 + 7
        idx.add_with_ids(vectors, ids)
        result = idx.search_with_filter(vectors[2], 1)
        assert result.ids[0] == 27

    def test_serialization_roundtrip(self, index, vectors):
        from repro.vindex.registry import deserialize_index, serialize_index

        restored = deserialize_index(serialize_index(index))
        a = index.search_with_filter(vectors[0], 5)
        b = restored.search_with_filter(vectors[0], 5)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_memory_bytes_reasonable(self, index, vectors):
        assert index.memory_bytes() >= vectors.nbytes

    def test_ip_metric(self, vectors):
        idx = FlatIndex(dim=16, metric="ip")
        idx.add_with_ids(vectors, np.arange(vectors.shape[0]))
        result = idx.search_with_filter(vectors[0], 1)
        # Max inner product with itself for this data (norms comparable).
        expected = int(np.argmax(vectors @ vectors[0]))
        assert result.ids[0] == expected
