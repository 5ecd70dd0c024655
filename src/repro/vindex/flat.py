"""FLAT: exact brute-force index — the system's one exact kernel.

Stores raw vectors; every search computes exact distances to all allowed
rows.  This is both the cache-miss fallback (paper §II-D) and the Plan A
executor's distance kernel (paper §IV-A, Equation 1): the executor
searches a segment without a resolved index through
:meth:`FlatIndex.view` of the segment's own vectors, so top-k, batch,
range and the post-filter iterator are each written once, here.  A
search checks its query and bitset once, then runs the unchecked
:func:`~repro.vindex.api.distance_kernel` over the float32 rows it holds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import IndexParameterError
from repro.vindex.api import (
    SearchResult,
    VectorIndex,
    distance_kernel,
    distance_kernel_batch,
    top_k_from_distances,
)
from repro.vindex.image import array_field
from repro.vindex.iterator import SearchIterator


class FlatIndex(VectorIndex):
    """Exact nearest-neighbor index (no approximation, no training)."""

    index_type = "FLAT"
    requires_training = False

    def __init__(self, dim: int, metric: str = "l2") -> None:
        super().__init__(dim, metric)
        self._vectors = np.empty((0, dim), dtype=np.float32)
        # None in a view: the ids are the row offsets.
        self._ids: Optional[np.ndarray] = np.empty(0, dtype=np.int64)

    @classmethod
    def view(cls, vectors: np.ndarray, metric: str) -> "FlatIndex":
        """A read-only FLAT index over ``vectors`` as they are, whose ids
        are the row offsets and whose bitsets have one entry a row: a
        segment's exact scan, built per search.

        It copies no vector and skips the constructors: the segment and
        the plan checked the vectors and the metric, and a view is never
        trained, added to, saved or sized.
        """
        index = cls.__new__(cls)
        index.dim, index.metric = int(vectors.shape[1]), metric
        index._vectors, index._ids = vectors, None
        return index

    @property
    def ntotal(self) -> int:
        return int(self._vectors.shape[0])

    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        vectors, ids = self._check_add(vectors, ids)
        self._vectors = np.vstack([self._vectors, vectors])
        self._ids = np.concatenate([self._ids, ids])

    def _allowed(self, bitset: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """The ids and vectors of the rows ``bitset`` allows: one gather
        by their offsets, or the stored vectors themselves without one."""
        ids = self._ids
        if bitset is None:
            if ids is None:
                ids = np.arange(self.ntotal, dtype=np.int64)
            return ids, self._vectors
        if ids is None:
            rows = bitset.nonzero()[0]
            return rows, self._vectors[rows]
        rows = bitset[ids].nonzero()[0]
        return ids[rows], self._vectors[rows]

    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        **search_params: Any,
    ) -> SearchResult:
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if k <= 0:
            return SearchResult.empty()
        ids, vectors = self._allowed(bitset)
        if ids.size == 0:
            return SearchResult.empty()
        distances = distance_kernel(query, vectors, self.metric)
        return top_k_from_distances(ids, distances, k, visited=int(ids.size))

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
        ids, vectors = self._allowed(bitset)
        if ids.size == 0 or k <= 0:
            return [SearchResult.empty() for _ in range(nq)]
        distances = distance_kernel_batch(queries, vectors, self.metric)
        visited = int(ids.size)
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
        # Exact range scan: one pass over the allowed rows, no doubling.
        # An ip distance is a negated inner product, so any radius is a
        # predicate; a negative l2 or cosine radius keeps no row.
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        ids, vectors = self._allowed(bitset)
        if ids.size == 0:
            return SearchResult.empty()
        distances = distance_kernel(query, vectors, self.metric)
        keep = np.flatnonzero(distances <= radius)
        order = keep[np.argsort(distances[keep], kind="stable")]
        return SearchResult(ids[order], distances[order], visited=int(ids.size))

    def search_iterator(
        self,
        query: np.ndarray,
        bitset: Optional[np.ndarray] = None,
        batch_size: int = 64,
        **search_params: Any,
    ) -> "FlatSearchIterator":
        """Score once, sort once: every allowed row is scored when the
        iterator is made, and batches are slices of one stable sort."""
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        ids, vectors = self._allowed(bitset)
        distances = distance_kernel(query, vectors, self.metric)
        order = np.argsort(distances, kind="stable")
        return FlatSearchIterator(ids[order], distances[order], batch_size)

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


class FlatSearchIterator(SearchIterator):
    """Batches of an exact scan sorted once; every batch reports the
    whole scan as visited, since all of it was scored up front."""

    def __init__(self, ids: np.ndarray, distances: np.ndarray, batch_size: int) -> None:
        if batch_size <= 0:
            raise IndexParameterError("batch_size must be positive")
        self._ids = ids
        self._distances = distances
        self._batch_size = batch_size
        self._cursor = 0

    @property
    def exhausted(self) -> bool:
        return self._cursor >= self._ids.shape[0]

    def next_batch(self) -> SearchResult:
        end = self._cursor + self._batch_size
        batch = SearchResult(
            self._ids[self._cursor : end],
            self._distances[self._cursor : end],
            visited=int(self._ids.shape[0]),
        )
        self._cursor = end
        return batch
