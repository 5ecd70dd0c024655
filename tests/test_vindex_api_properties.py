"""Cross-index property tests on the virtual index interface."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexParameterError
from repro.vindex.api import pairwise_distance, top_k_from_distances
from repro.vindex.registry import IndexSpec, create_index

INDEX_TYPES = ["FLAT", "IVFFLAT", "HNSW", "HNSWSQ", "DISKANN", "IVFPQ", "IVFPQFS"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(1)
    return rng.normal(size=(250, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def built(data):
    out = {}
    for name in INDEX_TYPES:
        params = {"m": 4} if name.startswith("IVFPQ") else {}
        index = create_index(IndexSpec(index_type=name, dim=16, params=params))
        index.train(data)
        index.add_with_ids(data, np.arange(data.shape[0]))
        out[name] = index
    return out


@pytest.mark.parametrize("name", INDEX_TYPES)
class TestInterfaceContract:
    def test_result_sorted(self, built, data, name):
        result = built[name].search_with_filter(data[0] + 0.05, 10)
        assert np.all(np.diff(result.distances) >= -1e-6)

    def test_result_ids_valid(self, built, data, name):
        result = built[name].search_with_filter(data[0], 10)
        assert np.all(result.ids >= 0)
        assert np.all(result.ids < data.shape[0])
        assert len(set(result.ids.tolist())) == len(result)

    def test_k_zero_empty(self, built, data, name):
        assert len(built[name].search_with_filter(data[0], 0)) == 0

    def test_bitset_never_leaks(self, built, data, name):
        bitset = np.zeros(data.shape[0], dtype=bool)
        bitset[50:100] = True
        result = built[name].search_with_filter(data[60], 5, bitset=bitset)
        assert set(result.ids.tolist()) <= set(range(50, 100))

    def test_bitset_validated(self, built, data, name):
        # A 0/1 integer bitset is a mask, not a fancy index: it must
        # answer exactly like its boolean twin; one that cannot cover
        # the rows is refused, not indexed out of bounds.
        mask = np.zeros(data.shape[0], dtype=bool)
        mask[:5] = True
        want = built[name].search_with_filter(data[4], 3, bitset=mask)
        got = built[name].search_with_filter(data[4], 3, bitset=mask.astype(np.int64))
        assert got.ids.tolist() == want.ids.tolist()
        assert got.distances.tolist() == want.distances.tolist()
        assert set(want.ids.tolist()) <= set(range(5))
        for bad in (mask[:10], np.ones((2, data.shape[0]), dtype=bool)):
            with pytest.raises(IndexParameterError):
                built[name].search_with_filter(data[4], 3, bitset=bad)

    def test_range_search_respects_radius(self, built, data, name):
        result = built[name].search_with_range(data[0], 3.0)
        assert np.all(result.distances <= 3.0 + 1e-6)

    def test_visited_reported(self, built, data, name):
        result = built[name].search_with_filter(data[0], 5)
        assert result.visited > 0

    def test_memory_bytes_positive(self, built, name):
        assert built[name].memory_bytes() >= 0

    def test_iterator_streams_unique_sorted_ids(self, built, data, name):
        iterator = built[name].search_iterator(data[0], batch_size=8)
        ids, dists = [], []
        for _ in range(3):
            batch = iterator.next_batch()
            ids.extend(batch.ids.tolist())
            dists.extend(batch.distances.tolist())
        assert len(ids) == len(set(ids))
        assert all(dists[i] <= dists[i + 1] + 1e-5 for i in range(len(dists) - 1))


class TestPairwiseDistance:
    def test_l2_matches_numpy(self):
        rng = np.random.default_rng(0)
        query = rng.normal(size=8).astype(np.float32)
        vectors = rng.normal(size=(20, 8)).astype(np.float32)
        expected = np.linalg.norm(vectors - query, axis=1)
        np.testing.assert_allclose(
            pairwise_distance(query, vectors, "l2"), expected, rtol=1e-5
        )

    def test_cosine_identity(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        dist = pairwise_distance(np.array([1.0, 0.0]), v, "cosine")
        assert dist[0] == pytest.approx(0.0, abs=1e-6)
        assert dist[1] == pytest.approx(1.0, abs=1e-6)

    def test_unknown_metric(self):
        from repro.errors import IndexParameterError

        with pytest.raises(IndexParameterError):
            pairwise_distance(np.zeros(2), np.zeros((1, 2)), "hamming")

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_topk_helper_matches_sort(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 50
        ids = np.arange(n)
        dists = rng.random(n)
        result = top_k_from_distances(ids, dists, k, visited=n)
        expected = np.argsort(dists, kind="stable")[: min(k, n)]
        np.testing.assert_array_equal(result.ids, expected)
