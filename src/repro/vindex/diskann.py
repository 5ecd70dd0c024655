"""DISKANN: a Vamana-graph disk-resident index.

Implements the DiskANN construction (Jayaram Subramanya et al., NeurIPS
2019) at reproduction scale: a single-layer graph built with greedy search
plus *robust pruning* (the ``alpha``-relaxed dominance rule), searched with
beam search from a medoid entry point.

Disk residency is modelled, not physical: vectors and adjacency lists
live in numpy, but every node visited during search reports a disk read
through an optional I/O charger the engine wires to the simulated clock,
and :meth:`memory_bytes` reports only the in-RAM routing state (ids +
medoid), matching DiskANN's "graph on SSD, tiny RAM footprint" split.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import IndexCorruptError, IndexParameterError
from repro.vindex.api import (
    SearchResult,
    VectorIndex,
    boundary_distances,
    get_kernel_mode,
    l2sq_pairwise_via_norms,
    pairwise_distance,
)
from repro.vindex.image import (
    adjacency_bytes,
    adjacency_fields,
    array_field,
    freeze_adjacency,
    load_adjacency,
    thaw_adjacency,
)

DEFAULT_R = 24            # max out-degree
DEFAULT_BUILD_BEAM = 48   # L during construction
DEFAULT_SEARCH_BEAM = 48  # L during search
DEFAULT_ALPHA = 1.2


class DiskANNIndex(VectorIndex):
    """Vamana graph with beam search and simulated SSD residency.

    Parameters
    ----------
    r:
        Maximum out-degree of each graph node.
    alpha:
        Robust-pruning relaxation; >1 keeps longer shortcut edges.
    build_beam:
        Beam width used while constructing the graph.
    """

    index_type = "DISKANN"
    requires_training = False

    def __init__(
        self,
        dim: int,
        metric: str = "l2",
        r: int = DEFAULT_R,
        alpha: float = DEFAULT_ALPHA,
        build_beam: int = DEFAULT_BUILD_BEAM,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if r < 2:
            raise IndexParameterError(f"out-degree r must be at least 2, got {r}")
        if alpha < 1.0:
            raise IndexParameterError(f"alpha must be >= 1, got {alpha}")
        self.r = r
        self.alpha = alpha
        self.build_beam = build_beam
        self.seed = seed
        self._vectors = np.empty((0, dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        # The Vamana graph in two forms, at least one of them present
        # (same discipline as HNSWIndex): the builder's adjacency lists
        # while a build runs and for the reference kernel, the frozen
        # CSR ``(offsets, indices)`` for the fast kernel and the image.
        # During construction the graph mutates per node, so search
        # takes the list-of-lists walk.
        self._graph_lists: Optional[List[List[int]]] = []
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._medoid = -1
        self._io_charger: Optional[Callable[[int], None]] = None
        self._building = False

    @property
    def ntotal(self) -> int:
        return int(self._vectors.shape[0])

    def _dist_internal(self, query: np.ndarray, nodes: Any) -> np.ndarray:
        """Comparison distance: squared L2 (sqrt-free) for the l2 metric."""
        sub = self._vectors[nodes]
        if self.metric == "l2":
            diff = sub - query
            return np.einsum("ij,ij->i", diff, diff)
        return pairwise_distance(query, sub, self.metric)

    def _to_external(self, internal: np.ndarray) -> np.ndarray:
        """Convert internal comparison distances to API distances.

        Boundary contract (DESIGN.md §9): the sqrt runs in float32 like
        every other kernel; float64 appears only inside SearchResult.
        """
        return boundary_distances(np.asarray(internal, dtype=np.float32), self.metric)

    def _frozen_graph(self) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency as CSR ``(offsets, indices)``, frozen after a rebuild."""
        lists = self._graph_lists
        csr = self._csr
        if csr is None:
            csr = self._csr = freeze_adjacency(lists)
            self._graph_lists = None
        return csr

    @property
    def _graph(self) -> List[List[int]]:
        """Adjacency lists, thawed from the CSR when the reference
        kernel (or a test) asks for them after a freeze or a load."""
        lists = self._graph_lists
        if lists is None:
            lists = self._graph_lists = thaw_adjacency(*self._csr)
        return lists

    def set_io_charger(self, charger: Optional[Callable[[int], None]]) -> None:
        """Install a callable charged ``nbytes`` per simulated disk read."""
        self._io_charger = charger

    def _node_bytes(self) -> int:
        """Bytes one node read costs: the vector plus its adjacency list."""
        return self.dim * 4 + self.r * 8

    def _charge_node_read(self, count: int = 1) -> None:
        if self._io_charger is not None and count > 0:
            self._io_charger(count * self._node_bytes())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Bulk build: DiskANN is constructed once per immutable segment,
        so incremental adds rebuild the graph over the union."""
        vectors = self._check_vectors(vectors)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.shape[0] != vectors.shape[0]:
            raise IndexParameterError(
                f"{ids.shape[0]} ids for {vectors.shape[0]} vectors"
            )
        self._vectors = np.vstack([self._vectors, vectors])
        self._ids = np.concatenate([self._ids, ids])
        self._build()

    def _build(self) -> None:
        n = self.ntotal
        if n == 0:
            return
        self._building = True
        rng = np.random.default_rng(self.seed)
        # Medoid: the point nearest the dataset mean.
        mean = self._vectors.mean(axis=0)
        self._medoid = int(np.argmin(pairwise_distance(mean, self._vectors, "l2")))
        # Random initial R-regular graph.
        graph: List[List[int]] = []
        self._graph_lists = graph
        self._csr = None
        for node in range(n):
            if n == 1:
                graph.append([])
                continue
            choices = rng.choice(n - 1, size=min(self.r, n - 1), replace=False)
            neighbors = [c if c < node else c + 1 for c in choices.tolist()]
            graph.append(neighbors)
        # One Vamana pass in random order (a second pass with larger alpha
        # marginally improves recall; one suffices at repro scale).
        order = rng.permutation(n)
        for node in order.tolist():
            visited = self._greedy_search(
                self._vectors[node], self.build_beam, charge=False
            )
            candidates = [(d, v) for d, v in visited if v != node]
            graph[node] = self._robust_prune(node, candidates)
            for neighbor in graph[node]:
                back = graph[neighbor]
                if node not in back:
                    back.append(node)
                    if len(back) > self.r:
                        dists = self._dist_internal(self._vectors[neighbor], back)
                        graph[neighbor] = self._robust_prune(
                            neighbor, list(zip(dists.tolist(), back))
                        )
        self._building = False

    def _robust_prune(self, node: int, candidates: List[Tuple[float, int]]) -> List[int]:
        """Vamana's alpha-relaxed pruning: drop candidates dominated by an
        already-kept neighbor that is alpha-times closer to them.

        The candidate-to-candidate distance matrix is computed in one shot
        so the dominance loop runs over precomputed values.
        """
        pool = sorted(set(candidates))
        if len(pool) <= 1:
            return [v for _, v in pool]
        nodes = np.array([v for _, v in pool], dtype=np.int64)
        to_node = np.array([d for d, _ in pool])
        sub = self._vectors[nodes]
        if self.metric == "l2":
            pairwise = l2sq_pairwise_via_norms(sub)
            alpha = self.alpha ** 2  # internal distances are squared
        else:
            pairwise = np.stack(
                [pairwise_distance(sub[i], sub, self.metric) for i in range(len(pool))]
            )
            alpha = self.alpha
        alive = np.ones(len(pool), dtype=bool)
        alive_list = alive.tolist()
        kept: List[int] = []
        cursor = 0
        total = len(pool)
        while len(kept) < self.r and cursor < total:
            if not alive_list[cursor]:
                cursor += 1
                continue
            best = cursor
            kept.append(int(nodes[best]))
            survivors = to_node < alpha * pairwise[best]
            alive &= survivors
            alive[best] = False
            alive_list = alive.tolist()
            cursor += 1
        return kept

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _greedy_search(
        self, query: np.ndarray, beam: int, charge: bool = True
    ) -> List[Tuple[float, int]]:
        """Beam search from the medoid; returns visited (distance, node).

        Dispatches to the CSR/bitmask kernel when the fast mode is
        active and the graph is frozen; construction-time calls (graph
        still mutating per node) always take the list walk.
        """
        if get_kernel_mode() == "fast" and not self._building:
            return self._greedy_search_fast(query, beam, charge)
        graph = self._graph
        start = self._medoid
        visited: Set[int] = {start}
        if charge:
            self._charge_node_read()
        start_dist = float(self._dist_internal(query, [start])[0])
        frontier: List[Tuple[float, int]] = [(start_dist, start)]
        results: List[Tuple[float, int]] = [(-start_dist, start)]
        settled: List[Tuple[float, int]] = []
        while frontier:
            dist, node = heapq.heappop(frontier)
            if len(results) >= beam and dist > -results[0][0]:
                break
            settled.append((dist, node))
            fresh = [v for v in graph[node] if v not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            if charge:
                self._charge_node_read(len(fresh))
            dists = self._dist_internal(query, fresh)
            for neighbor_dist, neighbor in zip(dists.tolist(), fresh):
                if len(results) < beam or neighbor_dist < -results[0][0]:
                    heapq.heappush(frontier, (neighbor_dist, neighbor))
                    heapq.heappush(results, (-neighbor_dist, neighbor))
                    if len(results) > beam:
                        heapq.heappop(results)
        merged = {node: dist for dist, node in settled}
        for negdist, node in results:
            merged.setdefault(node, -negdist)
        return sorted((dist, node) for node, dist in merged.items())

    def _greedy_search_fast(
        self, query: np.ndarray, beam: int, charge: bool = True
    ) -> List[Tuple[float, int]]:
        """Vectorized beam search: identical traversal to the reference
        walk (same arithmetic, heap discipline, neighbor order) with CSR
        neighbor gather and a boolean visited mask replacing per-node
        python loops, so results are byte-identical."""
        indptr, indices = self._frozen_graph()
        start = self._medoid
        visited = np.zeros(self.ntotal, dtype=bool)
        visited[start] = True
        if charge:
            self._charge_node_read()
        start_dist = float(self._dist_internal(query, [start])[0])
        frontier: List[Tuple[float, int]] = [(start_dist, start)]
        results: List[Tuple[float, int]] = [(-start_dist, start)]
        settled: List[Tuple[float, int]] = []
        while frontier:
            dist, node = heapq.heappop(frontier)
            if len(results) >= beam and dist > -results[0][0]:
                break
            settled.append((dist, node))
            neighbors = indices[indptr[node]:indptr[node + 1]]
            fresh = neighbors[~visited[neighbors]]
            if fresh.size == 0:
                continue
            visited[fresh] = True
            if charge:
                self._charge_node_read(int(fresh.size))
            dists = self._dist_internal(query, fresh)
            for neighbor_dist, neighbor in zip(dists.tolist(), fresh.tolist()):
                if len(results) < beam or neighbor_dist < -results[0][0]:
                    heapq.heappush(frontier, (neighbor_dist, neighbor))
                    heapq.heappush(results, (-neighbor_dist, neighbor))
                    if len(results) > beam:
                        heapq.heappop(results)
        merged = {node: dist for dist, node in settled}
        for negdist, node in results:
            merged.setdefault(node, -negdist)
        return sorted((dist, node) for node, dist in merged.items())

    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        beam: int = DEFAULT_SEARCH_BEAM,
        **search_params: Any,
    ) -> SearchResult:
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if self.ntotal == 0 or k <= 0 or self._medoid < 0:
            return SearchResult.empty()
        beam = max(int(beam), k)
        visited = self._greedy_search(query, beam)
        if bitset is not None:
            allowed = [(d, n) for d, n in visited if bitset[self._ids[n]]]
            while len(allowed) < k and beam < self.ntotal:
                beam = min(beam * 2, self.ntotal)
                visited = self._greedy_search(query, beam)
                allowed = [(d, n) for d, n in visited if bitset[self._ids[n]]]
            pool = allowed
        else:
            pool = visited
        top = pool[:k]
        ids = np.array([self._ids[node] for _, node in top], dtype=np.int64)
        distances = self._to_external(np.array([dist for dist, _ in top], dtype=np.float32))
        return SearchResult(ids, distances, visited=len(visited))

    # ------------------------------------------------------------------
    # Persistence / accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """In-RAM routing state only; vectors and graph are disk-resident."""
        return int(self._ids.nbytes) + 64

    def disk_bytes(self) -> int:
        """Size of the disk-resident portion (vectors + adjacency)."""
        return int(self._vectors.nbytes) + adjacency_bytes(*self._frozen_graph())

    def to_payload(self) -> Dict[str, Any]:
        return {
            "index_type": self.index_type,
            "dim": self.dim,
            "metric": self.metric,
            "r": self.r,
            "alpha": self.alpha,
            "build_beam": self.build_beam,
            "seed": self.seed,
            "vectors": self._vectors,
            "ids": self._ids,
            **adjacency_fields("graph", *self._frozen_graph(), self.ntotal),
            "medoid": self._medoid,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "DiskANNIndex":
        index = cls(
            payload["dim"],
            payload["metric"],
            r=payload["r"],
            alpha=payload["alpha"],
            build_beam=payload["build_beam"],
            seed=payload["seed"],
        )
        index._vectors = array_field(payload, "vectors", np.float32, None, index.dim)
        n = index.ntotal
        index._ids = array_field(payload, "ids", np.int64, n)
        csr = load_adjacency(payload, "graph", n, slots=n)
        medoid = payload["medoid"]
        if not (isinstance(medoid, int) and (0 <= medoid < n or (n == 0 and medoid == -1))):
            raise IndexCorruptError(f"DISKANN image: medoid {medoid!r} outside its {n} rows")
        index._graph_lists = None
        index._csr = csr
        index._medoid = medoid
        return index
