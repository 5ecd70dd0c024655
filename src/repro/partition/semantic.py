"""Semantic (similarity-based) partitioning: CLUSTER BY ... INTO n BUCKETS.

At ingest, vectors are k-means clustered into the declared bucket count;
each bucket becomes (part of) its own segment, summarized by a centroid.
At query time the scheduler keeps only segments whose centroids are near
the query vector (paper §IV-B "Semantic partition"), with adaptive
widening when cardinality estimates prove wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vindex.kmeans import assign_to_centroids, kmeans


@dataclass
class SemanticClustering:
    """Result of clustering one ingest batch."""

    centroids: np.ndarray          # (buckets, dim)
    assignments: np.ndarray        # (rows,) bucket id per row

    @property
    def bucket_count(self) -> int:
        """Number of buckets actually produced."""
        return int(self.centroids.shape[0])


def cluster_vectors(
    vectors: np.ndarray,
    buckets: int,
    seed: int = 0,
    max_iterations: int = 15,
) -> SemanticClustering:
    """Cluster ``vectors`` into at most ``buckets`` semantic buckets.

    Small batches get fewer buckets (one per row at the extreme) so tiny
    L0 flushes don't fail; the declared bucket count is an upper bound.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    rows = vectors.shape[0]
    if rows == 0:
        return SemanticClustering(
            centroids=np.empty((0, vectors.shape[1]), dtype=np.float32),
            assignments=np.empty(0, dtype=np.int64),
        )
    effective = max(1, min(buckets, rows))
    if effective == 1:
        return SemanticClustering(
            centroids=vectors.mean(axis=0, keepdims=True),
            assignments=np.zeros(rows, dtype=np.int64),
        )
    fitted = kmeans(vectors, effective, max_iterations=max_iterations, seed=seed)
    return SemanticClustering(centroids=fitted.centroids, assignments=fitted.assignments)


def assign_to_existing_buckets(
    vectors: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Route new rows to previously learned bucket centroids.

    Later ingest batches reuse the first batch's clustering so bucket
    semantics stay stable across flushes.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if centroids.shape[0] == 0:
        return np.zeros(vectors.shape[0], dtype=np.int64)
    return assign_to_centroids(vectors, centroids).astype(np.int64)
