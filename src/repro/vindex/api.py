"""The virtual vector index interface (paper Fig 5).

Storage-layer methods: :meth:`VectorIndex.train`,
:meth:`VectorIndex.add_with_ids`, :meth:`VectorIndex.save`,
:meth:`VectorIndex.load` (via :func:`repro.vindex.registry.deserialize_index`).

Execution-layer methods: :meth:`VectorIndex.search_with_filter`,
:meth:`VectorIndex.search_with_range`, :meth:`VectorIndex.search_iterator`.

All indexes *minimize* distance.  For inner-product metrics the distance is
the negated inner product so one comparison convention serves every
algorithm.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import IndexNotTrainedError, IndexParameterError

SUPPORTED_METRICS = ("l2", "ip", "cosine")


# ----------------------------------------------------------------------
# Distance kernel primitives (DESIGN.md §9)
# ----------------------------------------------------------------------
def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Per-row squared L2 norms in float32 (precomputed-norms contract)."""
    vectors = np.asarray(vectors, dtype=np.float32)
    return np.einsum("ij,ij->i", vectors, vectors)


def l2sq_pairwise_via_norms(rows: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 of ``rows`` via the norms identity (one GEMM).

    The O(n²) build-time kernel behind HNSW heuristic selection and
    Vamana robust pruning.
    """
    rows = np.asarray(rows, dtype=np.float32)
    norms = squared_norms(rows)
    return norms[:, None] - 2.0 * (rows @ rows.T) + norms[None, :]


def boundary_distances(internal: np.ndarray, metric: str) -> np.ndarray:
    """Convert internal comparison distances to result-boundary distances.

    The pinned dtype contract: kernels compute in float32 — including
    the final sqrt for ``l2``, whose internal form is squared L2 — and
    results become float64 only inside :class:`SearchResult`.  This is
    the same arithmetic chain as :func:`pairwise_distance`, so every
    index reports bit-identical distances for identical rows regardless
    of its internal kernel.
    """
    if metric == "l2":
        internal = np.asarray(internal, dtype=np.float32)
        return np.sqrt(np.maximum(internal, np.float32(0.0)))
    return np.asarray(internal, dtype=np.float64)


def pairwise_distance(query: np.ndarray, vectors: np.ndarray, metric: str = "l2") -> np.ndarray:
    """Distances between one ``query`` and each row of ``vectors``.

    ``l2`` returns true Euclidean distance; ``ip`` returns the negated
    inner product; ``cosine`` returns ``1 - cosine_similarity``.
    """
    query = np.asarray(query, dtype=np.float32)
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim == 1:
        vectors = vectors.reshape(1, -1)
    if query.shape[-1] != vectors.shape[-1]:
        raise IndexParameterError(
            f"dimension mismatch: query {query.shape[-1]} vs vectors {vectors.shape[-1]}"
        )
    return distance_kernel(query, vectors, metric)


def distance_kernel(query: np.ndarray, vectors: np.ndarray, metric: str) -> np.ndarray:
    """:func:`pairwise_distance` after its checks: ``query`` a float32
    vector and ``vectors`` a float32 matrix of its dimension, as an
    index's own checks leave them (FLAT searches through this)."""
    if metric == "l2":
        # A sum of squares is never negative (NaN stays NaN), so no
        # clamp: it would return the same bits.
        diff = vectors - query
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if metric == "ip":
        return -(vectors @ query)
    if metric == "cosine":
        denom = np.linalg.norm(vectors, axis=1) * (np.linalg.norm(query) or 1.0)
        denom = np.where(denom == 0, 1.0, denom)
        return 1.0 - (vectors @ query) / denom
    raise IndexParameterError(f"unknown metric {metric!r}; expected one of {SUPPORTED_METRICS}")


def pairwise_distance_batch(
    queries: np.ndarray, vectors: np.ndarray, metric: str = "l2"
) -> np.ndarray:
    """Distances between each of ``nq`` queries and each row of ``vectors``.

    Returns an ``(nq, n)`` matrix.  For ``l2`` the arithmetic per element
    matches :func:`pairwise_distance` exactly (same subtract-then-reduce),
    so batched and per-query execution agree bit-for-bit.  ``ip`` and
    ``cosine`` go through one GEMM instead of ``nq`` GEMVs, which may
    differ from the sequential kernel in the last ulp (BLAS accumulation
    order); callers needing bitwise reproducibility across batch sizes
    should use ``l2``.
    """
    queries = np.asarray(queries, dtype=np.float32)
    vectors = np.asarray(vectors, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if vectors.ndim == 1:
        vectors = vectors.reshape(1, -1)
    if queries.shape[-1] != vectors.shape[-1]:
        raise IndexParameterError(
            f"dimension mismatch: queries {queries.shape[-1]} vs vectors {vectors.shape[-1]}"
        )
    return distance_kernel_batch(queries, vectors, metric)


def distance_kernel_batch(
    queries: np.ndarray, vectors: np.ndarray, metric: str
) -> np.ndarray:
    """:func:`pairwise_distance_batch` after its checks: ``queries`` and
    ``vectors`` float32 matrices of one dimension."""
    if metric == "l2":
        diff = vectors[np.newaxis, :, :] - queries[:, np.newaxis, :]
        return np.sqrt(np.einsum("qnd,qnd->qn", diff, diff))
    if metric == "ip":
        return -(queries @ vectors.T)
    if metric == "cosine":
        query_norms = np.linalg.norm(queries, axis=1)
        query_norms = np.where(query_norms == 0, 1.0, query_norms)
        denom = np.linalg.norm(vectors, axis=1)[np.newaxis, :] * query_norms[:, np.newaxis]
        denom = np.where(denom == 0, 1.0, denom)
        return 1.0 - (queries @ vectors.T) / denom
    raise IndexParameterError(f"unknown metric {metric!r}; expected one of {SUPPORTED_METRICS}")


@dataclass
class SearchResult:
    """Result of one ANN search: parallel id/distance arrays, ascending distance.

    ``ids`` hold the caller-supplied row offsets (per-segment indexing
    stores row offsets, not primary keys).  ``visited`` counts candidate
    vectors the algorithm touched — the quantity the cost model calls
    ``β·n`` / ``γ·n`` — so benchmarks can charge simulated compute.
    """

    ids: np.ndarray
    distances: np.ndarray
    visited: int = 0

    def __post_init__(self) -> None:
        # Convert only what a kernel did not already hand over as such.
        if type(self.ids) is not np.ndarray or self.ids.dtype != np.int64:
            self.ids = np.asarray(self.ids, dtype=np.int64)
        if type(self.distances) is not np.ndarray or self.distances.dtype != np.float64:
            self.distances = np.asarray(self.distances, dtype=np.float64)
        if self.ids.shape != self.distances.shape:
            raise ValueError("ids and distances must have identical shapes")

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @classmethod
    def empty(cls, visited: int = 0) -> "SearchResult":
        """A zero-row result (e.g. nothing passed the filter)."""
        return cls(ids=np.empty(0, dtype=np.int64),
                   distances=np.empty(0, dtype=np.float64),
                   visited=visited)

    def top(self, k: int) -> "SearchResult":
        """First ``k`` rows (results are already distance-sorted)."""
        return SearchResult(self.ids[:k], self.distances[:k], visited=self.visited)


def range_by_doubling(
    searcher: Any,
    query: np.ndarray,
    radius: float,
    bitset: Optional[np.ndarray] = None,
    **search_params: Any,
) -> SearchResult:
    """All rows within ``radius`` through ``searcher``'s top-k interface.

    Over-fetches with doubling ``k`` until the farthest returned distance
    exceeds the radius, the generic construction the paper uses for
    libraries lacking native range search.  ``searcher`` needs
    ``search_with_filter`` and ``ntotal``; ``visited`` is the sum over
    every round, since each round is a search of its own.  Any radius is
    a predicate: an ``ip`` distance is a negated inner product and may be
    negative, and a negative ``l2`` or ``cosine`` radius keeps no row.
    """
    if searcher.ntotal == 0:
        return SearchResult.empty()
    k = min(64, searcher.ntotal)
    visited = 0
    while True:
        result = searcher.search_with_filter(query, k, bitset=bitset, **search_params)
        visited += result.visited
        within = result.distances <= radius
        exhausted = len(result) < k or k >= searcher.ntotal
        if exhausted or (len(result) > 0 and not within[-1]):
            keep = np.flatnonzero(within)
            return SearchResult(result.ids[keep], result.distances[keep], visited=visited)
        k = min(k * 2, searcher.ntotal)


class IndexFamily(enum.Enum):
    """How a search reaches its candidates (the planner's β and γ)."""

    FLAT = "flat"    # every row
    GRAPH = "graph"  # a beam walk ``search_knob`` wide
    IVF = "ivf"      # ``search_knob`` of ``nlist`` k-means cells


class VisitKernel(enum.Enum):
    """The rate ``ScanCharger`` charges one visited candidate at."""

    SCALAR = "scalar"              # one exact distance
    VECTORIZED = "vectorized"      # a gathered block's distances
    ADC = "adc"                    # 8-bit PQ table lookups, then refine
    ADC_FASTSCAN = "adc_fastscan"  # 4-bit in-register shuffles, then refine


class VectorIndex(abc.ABC):
    """Base class every pluggable index implements.

    Subclasses set ``index_type`` (registry name), ``requires_training``
    and the type's facts below, whose defaults describe an exact scan.
    """

    index_type: str = "ABSTRACT"
    requires_training: bool = False
    build_options: Mapping[str, type] = {}  # SQL option -> int / float
    search_knob: Optional[str] = None       # the one search-depth parameter
    search_knob_default: int = 0            # the depth every engine search uses
    family: IndexFamily = IndexFamily.FLAT
    visit_kernel: VisitKernel = VisitKernel.SCALAR

    def __init__(self, dim: int, metric: str = "l2") -> None:
        if dim <= 0:
            raise IndexParameterError(f"dimension must be positive, got {dim}")
        if metric not in SUPPORTED_METRICS:
            raise IndexParameterError(
                f"unknown metric {metric!r}; expected one of {SUPPORTED_METRICS}"
            )
        self.dim = dim
        self.metric = metric

    # ------------------------------------------------------------------
    # Storage layer
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def ntotal(self) -> int:
        """Number of vectors currently indexed."""

    @property
    def is_trained(self) -> bool:
        """Whether the index is ready to accept vectors."""
        return True

    def train(self, vectors: np.ndarray) -> None:
        """Learn data-dependent structure (e.g. IVF centroids).

        Indexes with ``requires_training = False`` accept (and ignore)
        training calls so callers can treat all types uniformly.
        """

    @abc.abstractmethod
    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Index ``vectors`` under caller-supplied integer ``ids``."""

    def set_refiner(self, refiner: Optional[Callable[[np.ndarray], np.ndarray]]) -> None:
        """Offer a callable mapping an id array to raw vectors, for
        indexes that re-rank a lossy shortlist (IVFPQ); others ignore it."""

    def set_io_charger(self, charger: Optional[Callable[[int], None]]) -> None:
        """Offer a callable charged ``nbytes`` per simulated disk read,
        for disk-resident indexes (DISKANN); others ignore it."""

    @abc.abstractmethod
    def to_payload(self) -> Dict[str, Any]:
        """State dict for persistence (inverse of ``from_payload``)."""

    @classmethod
    @abc.abstractmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "VectorIndex":
        """Rebuild an index from :meth:`to_payload` output."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Resident size of the index when loaded (paper Table VI)."""

    # ------------------------------------------------------------------
    # Execution layer
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        **search_params: Any,
    ) -> SearchResult:
        """Top-``k`` nearest ids, optionally restricted to ``bitset`` rows.

        ``bitset`` is a boolean array over row offsets; True means the row
        is allowed (pre-filter strategy, paper §III-B).  ``search_params``
        carry per-query knobs such as ``ef_search`` or ``nprobe``.
        """

    def search_with_range(
        self,
        query: np.ndarray,
        radius: float,
        bitset: Optional[np.ndarray] = None,
        **search_params: Any,
    ) -> SearchResult:
        """All rows within ``radius`` of ``query`` (distance-range scan).

        The default is :func:`range_by_doubling` over this index's top-k.
        """
        return range_by_doubling(self, query, radius, bitset, **search_params)

    def search_iterator(
        self,
        query: np.ndarray,
        bitset: Optional[np.ndarray] = None,
        batch_size: int = 64,
        **search_params: Any,
    ) -> "SearchIterator":
        """Incremental distance-ordered iterator (post-filter strategy).

        Indexes without a native iterator fall back to the generic
        restart-with-doubled-k wrapper (paper §III-B), which re-runs the
        top-k search from scratch with growing ``k``.
        """
        from repro.vindex.iterator import GenericRestartIterator

        return GenericRestartIterator(
            self, query, bitset=bitset, batch_size=batch_size, **search_params
        )

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _check_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise IndexParameterError(
                f"expected (*, {self.dim}) vectors, got shape {vectors.shape}"
            )
        return vectors

    def _check_add(self, vectors: np.ndarray, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Validate an ``add_with_ids`` batch: one int64 id per row."""
        vectors = self._check_vectors(vectors)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.shape[0] != vectors.shape[0]:
            raise IndexParameterError(f"{ids.shape[0]} ids for {vectors.shape[0]} vectors")
        return vectors, ids

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise IndexParameterError(
                f"query dimension {query.shape[0]} != index dimension {self.dim}"
            )
        return query

    def _require_trained(self) -> None:
        if self.requires_training and not self.is_trained:
            raise IndexNotTrainedError(
                f"{self.index_type} must be trained before this operation"
            )

    @staticmethod
    def _check_bitset(bitset: Optional[np.ndarray], ntotal: int) -> Optional[np.ndarray]:
        """Validate an allowed-rows bitset.

        The bitset is indexed by *external id*, so it must cover at least
        ``ntotal`` positions; it may be longer when an index holds a
        subset of a global id space (partitioned baselines).
        """
        if bitset is None:
            return None
        bitset = np.asarray(bitset, dtype=bool)
        if bitset.ndim != 1 or bitset.shape[0] < ntotal:
            raise IndexParameterError(
                f"bitset shape {bitset.shape} cannot cover ntotal {ntotal}"
            )
        return bitset


def top_k_from_distances(
    ids: np.ndarray, distances: np.ndarray, k: int, visited: int
) -> SearchResult:
    """Select the k smallest distances with a partial sort (shared helper)."""
    if k >= distances.shape[0]:
        order = distances.argsort(kind="stable")
    elif k <= 0:
        return SearchResult.empty(visited=visited)
    else:
        part = np.argpartition(distances, k - 1)[:k]
        order = part[np.argsort(distances[part], kind="stable")]
    return SearchResult(ids[order], distances[order], visited)
