"""Tests for dataset generators, recall, and workload construction."""

import numpy as np
import pytest

from repro.workloads import (
    ground_truth,
    make_cohere_like,
    make_hybrid_workload,
    make_laion_like,
    make_openai_like,
    make_production_like,
    recall_at_k,
    selectivity_threshold,
)
from repro.workloads.vectorbench import SweepPoint, qps_at_recall, qps_from_latencies


class TestDatasets:
    @pytest.mark.parametrize(
        "factory,name",
        [
            (make_cohere_like, "cohere-like"),
            (make_openai_like, "openai-like"),
            (make_laion_like, "laion-like"),
            (make_production_like, "production-like"),
        ],
    )
    def test_shapes_and_normalization(self, factory, name):
        ds = factory(n=500, dim=16, n_queries=10)
        assert ds.name == name
        assert ds.vectors.shape == (500, 16)
        assert ds.queries.shape == (10, 16)
        norms = np.linalg.norm(ds.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-4)

    def test_deterministic_under_seed(self):
        a = make_cohere_like(n=200, dim=8, seed=5)
        b = make_cohere_like(n=200, dim=8, seed=5)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_clustered_structure(self):
        """Generated data must be genuinely clustered (semantic
        partitioning and IVF depend on it)."""
        ds = make_cohere_like(n=1000, dim=16)
        from repro.vindex.kmeans import kmeans

        fitted = kmeans(ds.vectors, ds.n_clusters, seed=0)
        spread = float(
            np.linalg.norm(
                ds.vectors - fitted.centroids[fitted.assignments], axis=1
            ).mean()
        )
        global_spread = float(
            np.linalg.norm(ds.vectors - ds.vectors.mean(axis=0), axis=1).mean()
        )
        assert spread < 0.9 * global_spread

    def test_laion_extras(self):
        ds = make_laion_like(n=300, dim=8)
        assert all(isinstance(c, str) for c in ds.scalars["caption"])
        assert "similarity" in ds.scalars
        assert ds.extras["similarity_threshold"] == 0.3

    def test_production_columns(self):
        ds = make_production_like(n=300, dim=8)
        assert {"category", "source", "day", "score"} <= set(ds.scalars)


class TestGroundTruth:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(100, 8)).astype(np.float32)
        queries = vectors[:3] + 0.01
        truth = ground_truth(vectors, queries, 5)
        for qi in range(3):
            expected = np.argsort(np.linalg.norm(vectors - queries[qi], axis=1))[:5]
            np.testing.assert_array_equal(truth[qi], expected)

    def test_filtered_truth(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(50, 4)).astype(np.float32)
        mask = np.zeros(50, dtype=bool)
        mask[:10] = True
        truth = ground_truth(vectors, vectors[:1], 5, masks=[mask])
        assert set(truth[0].tolist()) <= set(range(10))

    def test_empty_mask(self):
        vectors = np.zeros((10, 2), dtype=np.float32)
        truth = ground_truth(vectors, vectors[:1], 3, masks=[np.zeros(10, bool)])
        assert truth[0].size == 0


class TestRecall:
    def test_perfect_recall(self):
        assert recall_at_k([[1, 2, 3]], [[1, 2, 3]], 3) == 1.0

    def test_partial_recall(self):
        assert recall_at_k([[1, 2, 9]], [[1, 2, 3]], 3) == pytest.approx(2 / 3)

    def test_empty_truth_skipped(self):
        assert recall_at_k([[1]], [[]], 3) == 0.0

    def test_truncates_to_k(self):
        assert recall_at_k([[1, 2, 3, 4]], [[1, 2]], 2) == 1.0


class TestWorkloads:
    def test_selectivity_threshold(self):
        assert selectivity_threshold(0.5) == 5000
        assert selectivity_threshold(0.0) == 0
        with pytest.raises(ValueError):
            selectivity_threshold(1.5)

    def test_pure_workload(self):
        ds = make_cohere_like(n=300, dim=8, n_queries=5)
        wl = make_hybrid_workload(ds, k=5)
        assert wl.masks == [None] * 5
        assert wl.paper_selectivity_label == "none"
        assert len(wl.truth) == 5

    def test_hybrid_workload_pass_fraction(self):
        ds = make_cohere_like(n=2000, dim=8, n_queries=5)
        wl = make_hybrid_workload(ds, k=5, pass_fraction=0.2)
        actual = wl.masks[0].mean()
        assert actual == pytest.approx(0.2, abs=0.05)
        assert wl.paper_selectivity_label == "80%"

    def test_sql_rendering(self):
        ds = make_cohere_like(n=300, dim=8, n_queries=2)
        wl = make_hybrid_workload(ds, k=7, pass_fraction=0.5)
        sql = wl.sql(0, table="bench")
        assert "LIMIT 7" in sql
        assert "WHERE attr <" in sql
        assert "L2Distance" in sql

    def test_truth_respects_filter(self):
        ds = make_cohere_like(n=1000, dim=8, n_queries=3)
        wl = make_hybrid_workload(ds, k=5, pass_fraction=0.1)
        attr = np.asarray(ds.scalars["attr"])
        threshold = selectivity_threshold(0.1)
        for truth in wl.truth:
            assert all(attr[i] < threshold for i in truth.tolist())


class TestBenchHelpers:
    def test_qps_from_latencies(self):
        assert qps_from_latencies([0.1] * 5) == pytest.approx(10.0)
        assert qps_from_latencies([]) == 0.0

    def test_qps_at_recall_picks_best_eligible(self):
        points = [
            SweepPoint({"ef": 10}, recall=0.90, qps=500),
            SweepPoint({"ef": 50}, recall=0.99, qps=300),
            SweepPoint({"ef": 100}, recall=0.995, qps=200),
        ]
        best = qps_at_recall(points, 0.99)
        assert best.params == {"ef": 50}

    def test_qps_at_recall_none_when_unreachable(self):
        points = [SweepPoint({"ef": 10}, recall=0.5, qps=100)]
        assert qps_at_recall(points, 0.99) is None
