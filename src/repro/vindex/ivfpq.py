"""IVFPQ and IVFPQFS: inverted files over product-quantized codes.

``IVFPQ`` is the classic IVFADC construction: a coarse k-means quantizer
routes vectors to cells, residuals against the cell centroid are PQ
encoded with 8-bit codes, and searches compute per-cell ADC tables.

``IVFPQFS`` is the 4-bit fast-scan variant the paper recommends for
write-heavy, cost-constrained workloads: 16-codeword codebooks make codes
4× smaller (and, on real hardware, SIMD-scannable).  Both support an
optional *refine* step — re-ranking ``refine_factor × k`` candidates with
exact distances — which is the ``σ·k·c_d`` term of the paper's cost
model.  The raw vectors used for refinement come from the segment (set
via :meth:`IVFPQIndex.set_refiner`) so they are not counted in index
memory, matching the paper's Table VI where IVFPQFS is the smallest
index.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import IndexCorruptError, IndexNotTrainedError, IndexParameterError
from repro.vindex.api import (
    IndexFamily,
    SearchResult,
    VectorIndex,
    VisitKernel,
    boundary_distances,
    pairwise_distance,
    top_k_from_distances,
)
from repro.vindex.image import array_field
from repro.vindex.ivf import DEFAULT_NLIST, DEFAULT_NPROBE
from repro.vindex.ivf import cell_ranges, load_cell_ptr, post_to_cells
from repro.vindex.kmeans import BUILD_ITERATIONS, Seeds, assign_to_centroids, kmeans
from repro.vindex.pq import ProductQuantizer

DEFAULT_M = 8
# The sub-quantizer count every ADC visit is priced at, whatever a
# segment's own ``m`` (ScanCharger and the planner's c_c).
PRICED_SUBQUANTIZERS = DEFAULT_M
DEFAULT_REFINE_FACTOR = 4

Refiner = Callable[[np.ndarray], np.ndarray]


class IVFPQIndex(VectorIndex):
    """Inverted file with product-quantized residual codes (8-bit).

    Parameters
    ----------
    nlist:
        Coarse cells (the paper's ``K_IVF``).
    m:
        PQ sub-quantizers; ``dim`` must be divisible by ``m``.
    nbits:
        Bits per PQ code unit (8 here; the fast-scan subclass uses 4).
    """

    index_type = "IVFPQ"
    requires_training = True
    build_options = {"nlist": int, "m": int, "seed": int}
    search_knob = "nprobe"
    search_knob_default = DEFAULT_NPROBE
    family = IndexFamily.IVF
    visit_kernel = VisitKernel.ADC
    _nbits = 8

    def __init__(
        self,
        dim: int,
        metric: str = "l2",
        nlist: int = DEFAULT_NLIST,
        m: int = DEFAULT_M,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if metric != "l2":
            raise IndexParameterError("IVFPQ supports only the l2 metric")
        if nlist <= 0:
            raise IndexParameterError(f"nlist must be positive, got {nlist}")
        self.nlist = nlist
        self.m = m
        self.seed = seed
        self._pq = ProductQuantizer(dim, m=m, nbits=self._nbits, seed=seed)
        self._centroids: Optional[np.ndarray] = None
        # Postings in cell order (see repro.vindex.ivf.post_to_cells).
        self._codes = np.empty((0, m), dtype=np.uint8)
        self._ids = np.empty(0, dtype=np.int64)
        self._cell_ptr = np.zeros(nlist + 1, dtype=np.uint32)
        self._refiner: Optional[Refiner] = None
        # Per-(query, codebook) ADC table cache (DESIGN.md §9): tables
        # depend only on the query, the coarse centroids, and the PQ
        # codebooks, so one query's tables are reused across restart
        # iterators, range-search doubling, and adaptive re-execution.
        # Lifetime is the index instance — a manifest swap builds new
        # index objects, which naturally invalidates the cache — and
        # train() clears it explicitly.
        self._lut_cache: "OrderedDict[bytes, Dict[int, np.ndarray]]" = OrderedDict()
        self._lut_lock = threading.Lock()
        self._lut_cache_max = 8

    @property
    def ntotal(self) -> int:
        return int(self._ids.shape[0])

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None and self._pq.is_trained

    def set_refiner(self, refiner: Optional[Refiner]) -> None:
        """Install a callable mapping id array → raw vectors for re-ranking.

        The engine wires this to the owning segment's vector column; the
        callable is excluded from persistence and memory accounting.
        """
        self._refiner = refiner

    def train(self, vectors: np.ndarray, seeds: Optional[Seeds] = None) -> None:
        """Fit the coarse cells, starting from the best of ``seeds`` when
        given, then the PQ codebooks on the residuals (always cold)."""
        vectors = self._check_vectors(vectors)
        if vectors.shape[0] < self.nlist:
            self.nlist = max(1, vectors.shape[0])
        coarse = kmeans(
            vectors, self.nlist, max_iterations=BUILD_ITERATIONS, seed=self.seed,
            init=None if seeds is None else seeds.best(self.nlist),
        )
        self._centroids = coarse.centroids
        residuals = vectors - coarse.centroids[coarse.assignments]
        self._pq.train(residuals)
        self._codes = np.empty((0, self.m), dtype=np.uint8)
        self._ids = np.empty(0, dtype=np.int64)
        self._cell_ptr = np.zeros(self.nlist + 1, dtype=np.uint32)
        with self._lut_lock:
            self._lut_cache.clear()

    def _tables_for(self, query: np.ndarray, probe: np.ndarray) -> Dict[int, np.ndarray]:
        """ADC tables for the probed cells, cached per (query, codebook).

        Missing cells are computed in one batched einsum over all their
        residuals (bitwise identical to per-cell :meth:`adc_table`
        calls) instead of one table build per cell per query.
        """
        assert self._centroids is not None
        key = query.tobytes()
        with self._lut_lock:
            entry = self._lut_cache.get(key)
            if entry is None:
                entry = {}
                self._lut_cache[key] = entry
                while len(self._lut_cache) > self._lut_cache_max:
                    self._lut_cache.popitem(last=False)
            else:
                self._lut_cache.move_to_end(key)
        missing = [int(cell) for cell in probe if int(cell) not in entry]
        if missing:
            residuals = query[None, :] - self._centroids[missing]
            tables = self._pq.adc_tables(residuals)
            for cell, table in zip(missing, tables):
                entry[cell] = table
        return entry

    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        if not self.is_trained:
            raise IndexNotTrainedError("IVFPQ requires train() before add_with_ids()")
        vectors, ids = self._check_add(vectors, ids)
        assert self._centroids is not None
        cells = assign_to_centroids(vectors, self._centroids)
        residuals = vectors - self._centroids[cells]
        codes = self._pq.encode(residuals)
        order, self._cell_ptr = post_to_cells(self._cell_ptr, cells)
        self._codes = np.vstack([self._codes, codes])[order]
        self._ids = np.concatenate([self._ids, ids])[order]

    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        nprobe: int = DEFAULT_NPROBE,
        refine_factor: int = DEFAULT_REFINE_FACTOR,
        **search_params: Any,
    ) -> SearchResult:
        self._require_trained()
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if self.ntotal == 0 or k <= 0:
            return SearchResult.empty()
        assert self._centroids is not None
        nprobe = max(1, min(int(nprobe), self.nlist))
        centroid_dist = pairwise_distance(query, self._centroids, "l2")
        probe = np.argsort(centroid_dist, kind="stable")[:nprobe]
        tables = self._tables_for(query, probe)

        # Collect surviving (cell, ids, codes) first so the output
        # buffers are sized once; empty or fully-filtered probe lists
        # fall through to the documented empty SearchResult.
        cell_rows: List[Any] = []
        visited = 0
        for cell, lo, hi in cell_ranges(self._cell_ptr, probe):
            if lo == hi:
                continue
            ids = self._ids[lo:hi]
            codes = self._codes[lo:hi]
            visited += int(ids.size)
            if bitset is not None:
                allowed = bitset[ids]
                if not allowed.any():
                    continue
                ids = ids[allowed]
                codes = codes[allowed]
            cell_rows.append((cell, ids, codes))
        if not cell_rows:
            return SearchResult.empty(visited=visited)

        # Allocation-free hot loop: two output buffers sized once,
        # filled by slice — no per-cell list churn, no final
        # concatenate + astype copies.
        total = sum(ids.size for _, ids, _ in cell_rows)
        all_ids = np.empty(total, dtype=np.int64)
        all_dist = np.empty(total, dtype=np.float32)
        pos = 0
        for cell, ids, codes in cell_rows:
            nxt = pos + ids.size
            all_ids[pos:nxt] = ids
            all_dist[pos:nxt] = self._pq.adc_distances(tables[cell], codes)
            pos = nxt

        # Selection runs on float32 squared distances (same order as the
        # old float64 upcast — the cast was injective); sqrt happens once
        # at the result boundary, in float32 (DESIGN.md §9).
        if self._refiner is None:
            sel = top_k_from_distances(all_ids, all_dist, k, visited=visited)
            return SearchResult(
                sel.ids, boundary_distances(sel.distances, self.metric), visited=visited
            )
        # Refine: exact re-rank of the σ·k best ADC candidates.
        fetch = min(max(k * max(1, int(refine_factor)), k), all_ids.shape[0])
        coarse = top_k_from_distances(all_ids, all_dist, fetch, visited=visited)
        raw = self._refiner(coarse.ids)
        exact = pairwise_distance(query, raw, self.metric)
        return top_k_from_distances(coarse.ids, exact, k, visited=visited)

    def memory_bytes(self) -> int:
        total = self._pq.memory_bytes()
        if self._centroids is not None:
            total += int(self._centroids.nbytes)
        # 4-bit codes pack two units per byte on real hardware; report the
        # packed size so the memory table shows the fast-scan advantage.
        per_vector = self._pq.code_bytes_per_vector()
        total += int(self.ntotal * per_vector)
        return total + int(self._ids.nbytes)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "index_type": self.index_type,
            "dim": self.dim,
            "metric": self.metric,
            "nlist": self.nlist,
            "m": self.m,
            "seed": self.seed,
            "pq": self._pq.to_payload(),
            "centroids": self._centroids,
            "codes": self._codes,
            "ids": self._ids,
            "cell_ptr": self._cell_ptr,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "IVFPQIndex":
        index = cls(
            payload["dim"],
            payload["metric"],
            nlist=payload["nlist"],
            m=payload["m"],
            seed=payload["seed"],
        )
        index._pq = ProductQuantizer.from_payload(payload["pq"])
        if payload["centroids"] is not None:
            index._centroids = array_field(
                payload, "centroids", np.float32, index.nlist, index.dim
            )
        index._codes = array_field(payload, "codes", np.uint8, None, index.m)
        index._ids = array_field(payload, "ids", np.int64, index._codes.shape[0])
        index._cell_ptr = load_cell_ptr(payload, index.nlist, index.ntotal)
        if index._pq.nbits < 8 and index.ntotal and int(index._codes.max()) >= index._pq.ksub:
            raise IndexCorruptError(
                f"{cls.index_type} image: a code addresses past its {index._pq.ksub} codewords"
            )
        return index


class IVFPQFastScanIndex(IVFPQIndex):
    """4-bit fast-scan PQ variant (faiss ``IVF{K},PQ{m}x4fs`` analogue).

    Smaller codebooks build faster and shrink codes 2× versus 8-bit PQ at
    some recall cost; the paper recommends it for high write frequency
    under a cost budget, usually paired with exact refinement
    (``...,RFlat``).
    """

    index_type = "IVFPQFS"
    visit_kernel = VisitKernel.ADC_FASTSCAN
    _nbits = 4
