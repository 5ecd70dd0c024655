"""FLAT: exact brute-force index.

Stores raw vectors; every search computes exact distances to all allowed
rows.  This is both the cache-miss fallback (paper §II-D) and the Plan A
executor's distance kernel (paper §IV-A, Equation 1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import IndexParameterError
from repro.vindex.api import (
    SearchResult,
    VectorIndex,
    pairwise_distance,
    pairwise_distance_batch,
    top_k_from_distances,
)
from repro.vindex.image import array_field


class FlatIndex(VectorIndex):
    """Exact nearest-neighbor index (no approximation, no training)."""

    index_type = "FLAT"
    requires_training = False
    supports_batch = True

    def __init__(self, dim: int, metric: str = "l2") -> None:
        super().__init__(dim, metric)
        self._vectors = np.empty((0, dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)

    @property
    def ntotal(self) -> int:
        return int(self._vectors.shape[0])

    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        vectors, ids = self._check_add(vectors, ids)
        self._vectors = np.vstack([self._vectors, vectors])
        self._ids = np.concatenate([self._ids, ids])

    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        **search_params: Any,
    ) -> SearchResult:
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if self.ntotal == 0 or k <= 0:
            return SearchResult.empty()
        if bitset is not None:
            keep = bitset[self._ids]
            if not keep.any():
                return SearchResult.empty()
            vectors = self._vectors[keep]
            ids = self._ids[keep]
        else:
            vectors = self._vectors
            ids = self._ids
        distances = pairwise_distance(query, vectors, self.metric)
        return top_k_from_distances(ids, distances, k, visited=int(vectors.shape[0]))

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        **search_params: Any,
    ) -> List[SearchResult]:
        """Vectorized multi-query search: one ``(nq, n)`` distance matrix
        instead of nq sequential scans."""
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if queries.shape[1] != self.dim:
            raise IndexParameterError(
                f"query dimension {queries.shape[1]} != index dimension {self.dim}"
            )
        bitset = self._check_bitset(bitset, self.ntotal)
        nq = int(queries.shape[0])
        if self.ntotal == 0 or k <= 0:
            return [SearchResult.empty() for _ in range(nq)]
        if bitset is not None:
            keep = bitset[self._ids]
            if not keep.any():
                return [SearchResult.empty() for _ in range(nq)]
            vectors = self._vectors[keep]
            ids = self._ids[keep]
        else:
            vectors = self._vectors
            ids = self._ids
        distances = pairwise_distance_batch(queries, vectors, self.metric)
        visited = int(vectors.shape[0])
        return [
            top_k_from_distances(ids, distances[row], k, visited=visited)
            for row in range(nq)
        ]

    def search_with_range(
        self,
        query: np.ndarray,
        radius: float,
        bitset: Optional[np.ndarray] = None,
        **search_params: Any,
    ) -> SearchResult:
        # Exact range scan: one pass, no doubling needed.
        if radius < 0:
            raise IndexParameterError(f"radius must be non-negative, got {radius}")
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if self.ntotal == 0:
            return SearchResult.empty()
        distances = pairwise_distance(query, self._vectors, self.metric)
        mask = distances <= radius
        if bitset is not None:
            mask &= bitset[self._ids]
        keep = np.flatnonzero(mask)
        order = keep[np.argsort(distances[keep], kind="stable")]
        return SearchResult(self._ids[order], distances[order], visited=self.ntotal)

    def reconstruct(self, row: int) -> np.ndarray:
        """The raw vector at internal position ``row`` (for re-ranking)."""
        return self._vectors[row]

    def memory_bytes(self) -> int:
        return int(self._vectors.nbytes + self._ids.nbytes)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "index_type": self.index_type,
            "dim": self.dim,
            "metric": self.metric,
            "vectors": self._vectors,
            "ids": self._ids,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FlatIndex":
        index = cls(payload["dim"], payload["metric"])
        index._vectors = array_field(payload, "vectors", np.float32, None, index.dim)
        index._ids = array_field(payload, "ids", np.int64, index.ntotal)
        return index
