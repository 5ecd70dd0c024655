"""IVF_FLAT: inverted file over k-means cells with exact in-cell scan.

Training clusters the data into ``nlist`` cells; each vector is posted to
its nearest cell.  A search probes the ``nprobe`` nearest cells and
computes exact distances within them.  ``nprobe / nlist`` is the paper's
``β`` (proportion of tuples visited by the ANN scan, Table II).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import IndexNotTrainedError, IndexParameterError
from repro.vindex.api import (
    IndexFamily,
    SearchResult,
    VectorIndex,
    pairwise_distance,
    pairwise_distance_batch,
    top_k_from_distances,
)
from repro.vindex.image import array_field, check_offsets
from repro.vindex.kmeans import BUILD_ITERATIONS, Seeds, assign_to_centroids, kmeans

DEFAULT_NLIST = 64
DEFAULT_NPROBE = 8


def post_to_cells(
    cell_ptr: np.ndarray, new_cells: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge a batch into cell-ordered postings.

    The posted rows are kept as one matrix ordered by cell, cell ``c``
    owning rows ``cell_ptr[c]:cell_ptr[c + 1]`` — the layout the index
    image stores.  Returns ``(order, cell_ptr')`` where ``order``
    permutes ``concatenate([old rows, new rows])`` back into cell order;
    the sort is stable, so inside a cell old rows stay ahead of new ones
    in arrival order, exactly as per-cell appends would leave them.
    """
    nlist = cell_ptr.shape[0] - 1
    cells = np.concatenate([np.repeat(np.arange(nlist), np.diff(cell_ptr)), new_cells])
    grown = np.zeros(nlist + 1, dtype=np.uint32)
    grown[1:] = np.cumsum(np.bincount(cells, minlength=nlist))
    return np.argsort(cells, kind="stable"), grown


def cell_ranges(cell_ptr: np.ndarray, cells: np.ndarray) -> Iterator[Tuple[int, int, int]]:
    """``(cell, lo, hi)`` row ranges of ``cells`` as Python ints: two
    gathers for the whole probe list instead of numpy-scalar indexing
    per probed cell."""
    return zip(cells.tolist(), cell_ptr[cells].tolist(), cell_ptr[cells + 1].tolist())


def cell_seeds(index: Any, alive: np.ndarray) -> Seeds:
    """A trained IVF-family index's centroids as seeds for a merged
    segment's training, each with the number of its cell's postings
    ``alive`` (a mask over the ids) keeps."""
    nlist = index._cell_ptr.shape[0] - 1
    cells = np.repeat(np.arange(nlist), np.diff(index._cell_ptr))
    return Seeds(index._centroids, np.bincount(cells[alive[index._ids]], minlength=nlist))


def load_cell_ptr(payload: Dict[str, Any], nlist: int, ntotal: int) -> np.ndarray:
    """The validated ``cell_ptr`` of an IVF image."""
    cell_ptr = array_field(payload, "cell_ptr", np.uint32, nlist + 1)
    check_offsets("cell_ptr", cell_ptr, ntotal)
    return cell_ptr


class IVFFlatIndex(VectorIndex):
    """Inverted-file index storing exact vectors per cell.

    Parameters
    ----------
    nlist:
        Number of k-means cells (the paper's ``K_IVF``).
    seed:
        Training determinism.
    """

    index_type = "IVFFLAT"
    requires_training = True
    build_options = {"nlist": int, "seed": int}
    search_knob = "nprobe"
    search_knob_default = DEFAULT_NPROBE
    family = IndexFamily.IVF

    def __init__(
        self, dim: int, metric: str = "l2", nlist: int = DEFAULT_NLIST, seed: int = 0
    ) -> None:
        super().__init__(dim, metric)
        if nlist <= 0:
            raise IndexParameterError(f"nlist must be positive, got {nlist}")
        self.nlist = nlist
        self.seed = seed
        self._centroids: Optional[np.ndarray] = None
        # Postings in cell order (see post_to_cells).
        self._vectors = np.empty((0, dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        self._cell_ptr = np.zeros(nlist + 1, dtype=np.uint32)

    @property
    def ntotal(self) -> int:
        return int(self._ids.shape[0])

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def train(self, vectors: np.ndarray, seeds: Optional[Seeds] = None) -> None:
        """Fit the ``nlist`` cells, starting from the best of ``seeds``
        when given (a merge offers its inputs' centroids)."""
        vectors = self._check_vectors(vectors)
        if vectors.shape[0] < self.nlist:
            # Fall back to fewer cells rather than refusing tiny segments;
            # per-segment indexing routinely sees small L0 segments.
            self.nlist = max(1, vectors.shape[0])
        result = kmeans(
            vectors, self.nlist, max_iterations=BUILD_ITERATIONS, seed=self.seed,
            init=None if seeds is None else seeds.best(self.nlist),
        )
        self._centroids = result.centroids
        self._vectors = np.empty((0, self.dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        self._cell_ptr = np.zeros(self.nlist + 1, dtype=np.uint32)

    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        if self._centroids is None:
            raise IndexNotTrainedError("IVFFLAT requires train() before add_with_ids()")
        vectors, ids = self._check_add(vectors, ids)
        cells = assign_to_centroids(vectors, self._centroids)
        order, self._cell_ptr = post_to_cells(self._cell_ptr, cells)
        self._vectors = np.vstack([self._vectors, vectors])[order]
        self._ids = np.concatenate([self._ids, ids])[order]

    def _probe_order(self, query: np.ndarray) -> np.ndarray:
        """Cell indices sorted by centroid distance to the query."""
        assert self._centroids is not None
        centroid_dist = pairwise_distance(query, self._centroids, "l2")
        return np.argsort(centroid_dist, kind="stable")

    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        nprobe: int = DEFAULT_NPROBE,
        **search_params: Any,
    ) -> SearchResult:
        self._require_trained()
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if self.ntotal == 0 or k <= 0:
            return SearchResult.empty()
        nprobe = max(1, min(int(nprobe), self.nlist))
        probe = self._probe_order(query)[:nprobe]
        # One gather and one distance call for every probed cell.  The
        # candidates stay in probe order and in-cell order: top-k breaks
        # ties by position.
        spans = [(lo, hi) for _, lo, hi in cell_ranges(self._cell_ptr, probe) if lo < hi]
        if not spans:
            return SearchResult.empty()
        if len(spans) == 1:
            ((lo, hi),) = spans
            ids, vectors = self._ids[lo:hi], self._vectors[lo:hi]
        else:
            ids = np.concatenate([self._ids[lo:hi] for lo, hi in spans])
            vectors = np.concatenate([self._vectors[lo:hi] for lo, hi in spans])
        visited = int(ids.size)  # a bitmap test touches every posting too
        if bitset is not None:
            allowed = bitset[ids]
            if not allowed.all():
                ids, vectors = ids[allowed], vectors[allowed]
                if ids.size == 0:
                    return SearchResult.empty(visited=visited)
        distances = pairwise_distance(query, vectors, self.metric)
        return top_k_from_distances(ids, distances, k, visited=visited)

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        nprobe: int = DEFAULT_NPROBE,
        **search_params: Any,
    ) -> List[SearchResult]:
        """Vectorized multi-query search.

        The centroid probe is one ``(nq, nlist)`` distance matrix, and
        each touched cell computes one ``(nq_cell, n_cell)`` block for
        every query probing it.  Per query, cell blocks are consumed in
        probe (nearest-centroid-first) order so candidate concatenation
        — and therefore tie-breaking in the top-k — matches
        :meth:`search_with_filter` exactly.
        """
        self._require_trained()
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
        nprobe = max(1, min(int(nprobe), self.nlist))
        assert self._centroids is not None
        centroid_dist = pairwise_distance_batch(queries, self._centroids, "l2")
        probe = np.argsort(centroid_dist, axis=1, kind="stable")[:, :nprobe]

        # cell -> (query rows probing it, filtered ids, distance block).
        blocks: Dict[int, tuple] = {}
        cell_sizes = np.diff(self._cell_ptr)
        for cell, lo, hi in cell_ranges(self._cell_ptr, np.unique(probe)):
            if lo == hi:
                blocks[cell] = None
                continue
            ids = self._ids[lo:hi]
            vectors = self._vectors[lo:hi]
            if bitset is not None:
                allowed = bitset[ids]
                if not allowed.any():
                    blocks[cell] = None
                    continue
                ids = ids[allowed]
                vectors = vectors[allowed]
            rows = np.flatnonzero((probe == cell).any(axis=1))
            row_index = {int(row): i for i, row in enumerate(rows)}
            distances = pairwise_distance_batch(queries[rows], vectors, self.metric)
            blocks[cell] = (row_index, ids, distances)

        results: List[SearchResult] = []
        for row in range(nq):
            gathered_ids: List[np.ndarray] = []
            gathered_dist: List[np.ndarray] = []
            visited = 0
            for cell in probe[row]:
                # The bitmap test touches every posting, like the
                # sequential path.
                visited += int(cell_sizes[cell])
                block = blocks[int(cell)]
                if block is None:
                    continue
                row_index, ids, distances = block
                gathered_ids.append(ids)
                gathered_dist.append(distances[row_index[row]])
            if not gathered_ids:
                results.append(SearchResult.empty(visited=visited))
                continue
            all_ids = np.concatenate(gathered_ids)
            all_dist = np.concatenate(gathered_dist)
            results.append(top_k_from_distances(all_ids, all_dist, k, visited=visited))
        return results

    def memory_bytes(self) -> int:
        total = 0 if self._centroids is None else int(self._centroids.nbytes)
        return total + int(self._vectors.nbytes) + int(self._ids.nbytes)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "index_type": self.index_type,
            "dim": self.dim,
            "metric": self.metric,
            "nlist": self.nlist,
            "seed": self.seed,
            "centroids": self._centroids,
            "vectors": self._vectors,
            "ids": self._ids,
            "cell_ptr": self._cell_ptr,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "IVFFlatIndex":
        index = cls(
            payload["dim"], payload["metric"], nlist=payload["nlist"], seed=payload["seed"]
        )
        if payload["centroids"] is not None:
            index._centroids = array_field(
                payload, "centroids", np.float32, index.nlist, index.dim
            )
        index._vectors = array_field(payload, "vectors", np.float32, None, index.dim)
        index._ids = array_field(payload, "ids", np.int64, index._vectors.shape[0])
        index._cell_ptr = load_cell_ptr(payload, index.nlist, index.ntotal)
        return index
