"""Tests for IVF_FLAT."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexNotTrainedError, IndexParameterError
from repro.vindex.flat import FlatIndex
from repro.vindex.ivf import IVFFlatIndex
from repro.vindex.registry import deserialize_index, serialize_index


def clustered(n=400, dim=16, k=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, dim)).astype(np.float32)
    points = centers[rng.integers(0, k, size=n)] + rng.normal(
        scale=0.3, size=(n, dim)
    ).astype(np.float32)
    return points


@pytest.fixture
def data():
    return clustered()


@pytest.fixture
def index(data):
    idx = IVFFlatIndex(dim=16, nlist=8, seed=0)
    idx.train(data)
    idx.add_with_ids(data, np.arange(data.shape[0]))
    return idx


class TestTraining:
    def test_add_before_train_rejected(self, data):
        idx = IVFFlatIndex(dim=16, nlist=8)
        with pytest.raises(IndexNotTrainedError):
            idx.add_with_ids(data, np.arange(data.shape[0]))

    def test_nlist_shrinks_for_tiny_data(self):
        idx = IVFFlatIndex(dim=4, nlist=100)
        tiny = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
        idx.train(tiny)
        assert idx.nlist == 5

    def test_invalid_nlist(self):
        with pytest.raises(IndexParameterError):
            IVFFlatIndex(dim=8, nlist=0)


class TestSearch:
    def test_full_probe_is_exact(self, index, data):
        exact = FlatIndex(dim=16)
        exact.add_with_ids(data, np.arange(data.shape[0]))
        query = data[10] + 0.05
        full = index.search_with_filter(query, 10, nprobe=index.nlist)
        truth = exact.search_with_filter(query, 10)
        np.testing.assert_array_equal(full.ids, truth.ids)

    def test_recall_improves_with_nprobe(self, index, data):
        rng = np.random.default_rng(1)
        queries = data[rng.choice(len(data), 20, replace=False)] + 0.05
        truth = [
            set(np.argsort(np.linalg.norm(data - q, axis=1))[:10].tolist())
            for q in queries
        ]

        def recall(nprobe):
            hits = 0
            for q, want in zip(queries, truth):
                got = index.search_with_filter(q, 10, nprobe=nprobe)
                hits += len(set(got.ids.tolist()) & want)
            return hits / (10 * len(queries))

        assert recall(8) >= recall(1)
        assert recall(8) > 0.9

    def test_visited_scales_with_nprobe(self, index, data):
        few = index.search_with_filter(data[0], 5, nprobe=1)
        many = index.search_with_filter(data[0], 5, nprobe=8)
        assert many.visited > few.visited

    def test_bitset_filter(self, index, data):
        bitset = np.zeros(data.shape[0], dtype=bool)
        bitset[: len(data) // 2] = True
        result = index.search_with_filter(data[0], 10, nprobe=8, bitset=bitset)
        assert all(i < len(data) // 2 for i in result.ids.tolist())

    def test_empty_index(self):
        idx = IVFFlatIndex(dim=4, nlist=2)
        idx.train(np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32))
        result = idx.search_with_filter(np.zeros(4, dtype=np.float32), 3)
        assert len(result) == 0


class TestPersistence:
    def test_roundtrip(self, index, data):
        restored = deserialize_index(serialize_index(index))
        a = index.search_with_filter(data[3], 5, nprobe=4)
        b = restored.search_with_filter(data[3], 5, nprobe=4)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_memory_accounts_vectors(self, index, data):
        assert index.memory_bytes() >= data.nbytes


def oracle(index, query, k, bitset, nprobe):
    """Brute-force reading of one IVF-FLAT search, from the index's
    centroids and postings only: ``(visited, {id: distance}, wanted)``
    where ``wanted`` is the k smallest allowed candidate distances,
    ascending.  Probe order is the centroids' distance order, ties to
    the lower cell; l2 distances are float32 subtract-form, computed
    over every posting at once; ip / cosine are float64."""
    centroids = index._centroids.astype(np.float64)
    order = np.argsort(np.sqrt(((centroids - query) ** 2).sum(axis=1)), kind="stable")
    probed = order[: max(1, min(nprobe, len(centroids)))]
    cell_of = np.repeat(np.arange(len(centroids)), np.diff(index._cell_ptr.astype(np.int64)))
    candidate = np.isin(cell_of, probed)
    visited = int(candidate.sum())
    if bitset is not None:
        candidate &= bitset[index._ids]
    vectors, ids = index._vectors[candidate], index._ids[candidate]
    if index.metric == "l2":
        diff = vectors - query.astype(np.float32)
        dist = np.sqrt(np.maximum(np.einsum("ij,ij->i", diff, diff), np.float32(0)))
    else:
        dots = vectors.astype(np.float64) @ query.astype(np.float64)
        if index.metric == "ip":
            dist = -dots
        else:
            norms = np.linalg.norm(vectors.astype(np.float64), axis=1) * np.linalg.norm(query)
            dist = 1.0 - dots / np.where(norms == 0, 1.0, norms)
    dist = dist.astype(np.float64)
    return visited, dict(zip(ids.tolist(), dist.tolist())), np.sort(dist)[:k]


def assert_matches_oracle(index, query, k, bitset, nprobe):
    result = index.search_with_filter(query, k, bitset=bitset, nprobe=nprobe)
    visited, by_id, wanted = oracle(index, query, k, bitset, nprobe)
    got = result.ids.tolist()
    assert result.visited == visited
    assert len(got) == len(set(got)) == len(wanted)
    assert set(got) <= set(by_id)
    # Tied rows come back in arbitrary order, so compare each id's own
    # distance and the distance sequence, never the tie order.
    mine = np.array([by_id[i] for i in got])
    if index.metric == "l2":
        assert result.distances.tolist() == wanted.tolist()
        assert result.distances.tolist() == mine.tolist()
    else:
        # float32 GEMV against a float64 oracle, relative to a dot
        # product's scale: |row| * |query| for ip, 1 for cosine.
        scale = 1.0
        if index.metric == "ip" and len(got):
            rows = np.linalg.norm(index._vectors, axis=1).max()
            scale = max(1.0, float(rows * np.linalg.norm(query)))
        np.testing.assert_allclose(result.distances, mine, rtol=0, atol=1e-6 * scale)
        np.testing.assert_allclose(result.distances, wanted, rtol=0, atol=1e-6 * scale)
    return result


class TestOracle:
    """IVF-FLAT search against a brute-force reading of its cells."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 16),
        n_train=st.integers(1, 80),
        n_add=st.integers(0, 120),
        nlist=st.integers(1, 10),
        nprobe_extra=st.integers(-9, 3),
        k=st.integers(1, 140),
        metric=st.sampled_from(["l2", "ip", "cosine"]),
        mask=st.sampled_from(["none", "all", "nothing", "sparse", "half"]),
        loaded=st.booleans(),
    )
    def test_search_matches_oracle(
        self, seed, dim, n_train, n_add, nlist, nprobe_extra, k, metric, mask, loaded
    ):
        rng = np.random.default_rng(seed)
        centers = rng.normal(scale=3.0, size=(4, dim))
        train = centers[rng.integers(0, 4, n_train)] + rng.normal(size=(n_train, dim))
        index = IVFFlatIndex(dim, metric, nlist=nlist, seed=seed % 7)
        index.train(train.astype(np.float32))
        # Added rows come from fewer clusters than were trained on, and
        # may be fewer than the cells: some cells stay empty.
        added = centers[rng.integers(0, 2, n_add)] + rng.normal(size=(n_add, dim))
        ids = rng.permutation(n_add)
        cut = int(rng.integers(0, n_add + 1))
        for part in (slice(0, cut), slice(cut, n_add)):
            index.add_with_ids(added[part].astype(np.float32), ids[part])
        if loaded:
            index = deserialize_index(serialize_index(index))
            assert not index._vectors.flags.writeable
        bitset = {
            "none": None,
            "all": np.ones(n_add, dtype=bool),
            "nothing": np.zeros(n_add, dtype=bool),
            "sparse": rng.random(n_add) < 0.1,
            "half": rng.random(n_add) < 0.5,
        }[mask]
        nprobe = max(1, index.nlist + nprobe_extra)
        for query in rng.normal(scale=2.0, size=(3, dim)).astype(np.float32):
            assert_matches_oracle(index, query, k, bitset, nprobe)
        if metric == "l2" and n_add:
            queries = rng.normal(scale=2.0, size=(4, dim)).astype(np.float32)
            batch = index.search_batch(queries, k, bitset=bitset, nprobe=nprobe)
            for query, got in zip(queries, batch):
                one = index.search_with_filter(query, k, bitset=bitset, nprobe=nprobe)
                assert got.ids.tolist() == one.ids.tolist()
                assert got.distances.tobytes() == one.distances.tobytes()
                assert got.visited == one.visited

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_empty_cells_probed(self, metric):
        """Rows from one cluster of four: most probed cells are empty."""
        data = clustered(n=200, dim=8, k=4, seed=5)
        index = IVFFlatIndex(8, metric, nlist=16)
        index.train(data)
        near = data[np.linalg.norm(data - data[0], axis=1) < 3.0]
        index.add_with_ids(near, np.arange(len(near)))
        assert (np.diff(index._cell_ptr) == 0).sum() >= 8
        for nprobe in (1, 4, 16, 40):
            for query in (data[0], data[-1], np.zeros(8, dtype=np.float32)):
                assert_matches_oracle(index, query, 5, None, nprobe)
                assert_matches_oracle(index, query, 500, np.arange(len(near)) % 3 == 0, nprobe)

    def test_nlist_one(self):
        data = clustered(n=60, dim=4, k=2, seed=2)
        index = IVFFlatIndex(4, nlist=1)
        index.train(data)
        index.add_with_ids(data, np.arange(60))
        result = assert_matches_oracle(index, data[7], 100, None, 8)
        assert result.visited == len(result) == 60
