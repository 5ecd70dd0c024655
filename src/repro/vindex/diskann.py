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

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import IndexCorruptError, IndexParameterError
from repro.vindex.api import SearchResult, VectorIndex, pairwise_distance
from repro.vindex.graph import (
    beam_search_csr,
    beam_search_lists,
    candidate_pairwise,
    filtered_top_k,
)
from repro.vindex.hnsw import table_granted
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
        # while a build runs, the frozen CSR ``(offsets, indices)`` for
        # queries and the image.  During construction the graph mutates
        # per node, so search takes the list-of-lists walk.
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
        """Adjacency lists, thawed from the CSR when a test asks for them
        after a freeze or a load."""
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
        vectors, ids = self._check_add(vectors, ids)
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
        # Where an HNSW of this size would get a distance table
        # (DESIGN.md §9), so does the pass: each row is scored against
        # the whole store once and its walk looks distances up.
        tabled = table_granted(self.metric, n * self.dim)
        for node in order.tolist():
            query = self._vectors[node]
            table = self._dist_internal(query, slice(None)).tolist() if tabled else None
            visited = self._greedy_search(query, self.build_beam, table)
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
        pairwise = candidate_pairwise(self._vectors[nodes], self.metric)
        # Internal l2 distances are squared, so the relaxation is too.
        alpha = self.alpha ** 2 if self.metric == "l2" else self.alpha
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
        self, query: np.ndarray, beam: int, table: Optional[List[float]] = None
    ) -> List[Tuple[float, int]]:
        """Beam search from the medoid; returns the visited pool — every
        node expanded plus the final beam — as ascending (distance, node).

        Queries walk the frozen CSR and charge their reads;
        construction-time calls (graph still mutating per node) take the
        list walk, charge no reads and are the only ones that pass a
        ``table``.
        """
        if self._building:
            nearest, settled, _ = beam_search_lists(
                self._dist_internal, query, self._graph, self._medoid, beam, table=table
            )
        else:
            on_read = None if self._io_charger is None else self._charge_node_read
            nearest, settled, _ = beam_search_csr(
                self._dist_internal, query, *self._frozen_graph(), self._medoid, beam, on_read
            )
        merged = {node: dist for dist, node in settled}
        for dist, node in nearest:
            merged.setdefault(node, dist)
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

        def search(width: int) -> Tuple[List[Tuple[float, int]], int]:
            pool = self._greedy_search(query, width)
            return pool, len(pool)  # visited: the settled ∪ kept pool

        return filtered_top_k(search, k, max(int(beam), k), self._ids, bitset, self.metric)

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
