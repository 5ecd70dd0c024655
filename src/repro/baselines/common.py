"""Shared machinery for baseline systems.

Each baseline holds real vector indexes (from :mod:`repro.vindex`) and a
simulated clock; subclasses differ in ingestion pipelining, hybrid-query
strategy, and per-query engine overheads — exactly the axes the paper's
comparisons exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ingest.buildcost import estimate_index_build_cost
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.vindex.api import SearchResult, VectorIndex, pairwise_distance, top_k_from_distances
from repro.vindex.registry import IndexSpec, create_index


@dataclass
class BaselineProfile:
    """Performance personality of a baseline system."""

    name: str
    # Ingestion: blocking = write then build; serial_factor inflates the
    # build (single-process systems), build_overhead models extra work
    # (segment sealing, WAL, etc.).
    pipelined_build: bool = False
    serial_factor: float = 1.0
    build_overhead: float = 1.0
    # Query side: fixed per-query engine overhead plus a multiplier on
    # distance-computation throughput (1.0 = BlendHouse-class kernels).
    query_overhead_s: float = 5e-4
    kernel_slowdown: float = 1.0


class BaselineVectorDB:
    """Base class: load vectors + scalars, then search with filters."""

    profile = BaselineProfile(name="abstract")

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        cost: Optional[DeviceCostModel] = None,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.cost = cost or DeviceCostModel()
        self.metrics = metrics or MetricRegistry()
        self._vectors: Optional[np.ndarray] = None
        self._scalars: Dict[str, Any] = {}
        self._indexes: Dict[Any, VectorIndex] = {}       # partition -> index
        self._partition_rows: Dict[Any, np.ndarray] = {}  # partition -> global row ids
        self._partition_column: Optional[str] = None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(
        self,
        vectors: np.ndarray,
        scalars: Dict[str, Any],
        index_type: str = "HNSW",
        index_params: Optional[Dict[str, Any]] = None,
        partition_column: Optional[str] = None,
    ) -> float:
        """Ingest everything and build indexes; returns simulated seconds.

        ``partition_column`` enables the "-Partition" variants of Table
        VII: one index per distinct value, pruned at query time.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self._vectors = vectors
        self._scalars = dict(scalars)
        self._partition_column = partition_column
        n, dim = vectors.shape
        params = dict(index_params or {})
        spec = IndexSpec(index_type=index_type, dim=dim, params=params)

        if partition_column is None:
            groups: Dict[Any, np.ndarray] = {None: np.arange(n, dtype=np.int64)}
        else:
            column = scalars[partition_column]
            groups = {}
            values = column if isinstance(column, list) else column.tolist()
            for row, value in enumerate(values):
                groups.setdefault(value, []).append(row)
            groups = {key: np.asarray(rows, dtype=np.int64) for key, rows in groups.items()}

        profile = self.profile
        write_cost = self.cost.object_store_write(int(vectors.nbytes))
        build_cost = 0.0
        with self.clock.paused():
            for key, rows in groups.items():
                index = create_index(spec)
                sub = vectors[rows]
                index.train(sub)
                # Baselines index by *global* row id so results compare
                # directly with ground truth.
                index.add_with_ids(sub, rows)
                self._attach_refiner(index, rows)
                self._indexes[key] = index
                self._partition_rows[key] = rows
                build_cost += estimate_index_build_cost(
                    index_type, int(rows.size), dim, params, self.cost
                )
        build_cost *= profile.serial_factor * profile.build_overhead
        if profile.pipelined_build:
            total = max(write_cost, build_cost) + 0.1 * min(write_cost, build_cost)
        else:
            total = write_cost + build_cost
        self.clock.advance(total)
        self.metrics.incr(f"{profile.name}.loads")
        return total

    def _attach_refiner(self, index: VectorIndex, rows: np.ndarray) -> None:
        if self._vectors is not None:
            vectors = self._vectors
            index.set_refiner(lambda ids: vectors[np.asarray(ids, dtype=np.int64)])

    # ------------------------------------------------------------------
    # Search plumbing shared by subclasses
    # ------------------------------------------------------------------
    @property
    def ntotal(self) -> int:
        """Loaded vector count."""
        return 0 if self._vectors is None else int(self._vectors.shape[0])

    def _charge_query_overhead(self) -> None:
        self.clock.advance(self.profile.query_overhead_s)

    def charge_mask_evaluation(
        self, mask_eval_columns: int, partition_filter: Optional[set] = None
    ) -> None:
        """Charge the structured scan that produced the caller's mask.

        Benches precompute predicate masks outside the system; charging
        the equivalent per-row decode cost here keeps the comparison
        with BlendHouse (which evaluates predicates inside the engine)
        fair.  Partition pruning shrinks the scanned row count.
        """
        if mask_eval_columns <= 0:
            return
        if partition_filter is not None and self._partition_column is not None:
            rows = sum(
                int(self._partition_rows[key].size)
                for key in self._partitions_for(partition_filter)
            )
        else:
            rows = self.ntotal
        self.clock.advance(rows * mask_eval_columns * self.cost.row_decode_s)

    def _charge_visits(self, visited: int, dim: int) -> None:
        self.clock.advance(
            self.cost.distance_cost(visited, dim) * self.profile.kernel_slowdown
        )

    def _partitions_for(self, partition_filter: Optional[set]) -> List[Any]:
        if self._partition_column is None or partition_filter is None:
            return list(self._indexes)
        return [key for key in self._indexes if key in partition_filter]

    def _brute_force(
        self, query: np.ndarray, k: int, mask: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        assert self._vectors is not None
        if mask is not None:
            rows = np.flatnonzero(mask)
        else:
            rows = np.arange(self.ntotal, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        distances = pairwise_distance(query, self._vectors[rows], "l2")
        self._charge_visits(int(rows.size), self._vectors.shape[1])
        result = top_k_from_distances(rows, distances, k, visited=int(rows.size))
        return result.ids, result.distances

    # Subclasses implement:
    def search(
        self,
        query: np.ndarray,
        k: int,
        mask: Optional[np.ndarray] = None,
        partition_filter: Optional[set] = None,
        **params: Any,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(ids, distances) for one query."""
        raise NotImplementedError

    def _merged_index_search(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray],
        partition_filter: Optional[set],
        **params: Any,
    ) -> SearchResult:
        """Search every admissible partition index and merge top-k."""
        assert self._vectors is not None
        gathered_ids: List[np.ndarray] = []
        gathered_dists: List[np.ndarray] = []
        visited = 0
        for key in self._partitions_for(partition_filter):
            index = self._indexes[key]
            result = index.search_with_filter(query, k, bitset=bitset, **params)
            visited += result.visited
            gathered_ids.append(result.ids)
            gathered_dists.append(result.distances)
        self._charge_visits(visited, self._vectors.shape[1])
        if not gathered_ids:
            return SearchResult.empty()
        ids = np.concatenate(gathered_ids)
        dists = np.concatenate(gathered_dists)
        return top_k_from_distances(ids, dists, k, visited=visited)
