"""The graph family's one traversal (DESIGN.md §9, "One graph walk").

HNSW, HNSWSQ and DiskANN walk a proximity graph the same way — pop the
nearest frontier node, gather its unseen neighbours, admit those that
beat the beam's worst — so the walk lives here once per adjacency
form: :func:`beam_search_lists` (python lists
and a ``set``: the builders' walk, since the graph mutates between
calls — HNSW's only above its size rule — and the *reference* kernel)
and :func:`beam_search_csr` (frozen CSR, a ``bytearray`` and an
optional per-query distance table: the *fast* kernel).  They are two
independent implementations of one traversal — same arithmetic, heap
discipline, strict-``<`` admission and neighbour order — which is what
lets the kernel-equivalence suite
hold either against the other.

Both take ``distance(query, nodes)``, an index's bound method (passed
with the query so a hop pays no closure frame), and return ``(beam,
settled, marked)``: the ``width`` nearest nodes found as ascending
``(distance, node)`` pairs, the nodes expanded in pop order (DiskANN
adds them to its pool) and how many nodes were marked seen (HNSW's
``visited``).  ``on_read(count)``, when given, is called with 1 for the
entry and then once per non-empty expansion with the number of
neighbours gathered, in traversal order — DiskANN's simulated reads.

Lists are expected to name a neighbour at most once, as every builder
guarantees; a repeated edge is admitted once per repeat, by both walks.
"""

from __future__ import annotations

import heapq
from itertools import compress
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.vindex.api import (
    SearchResult,
    boundary_distances,
    l2sq_pairwise_via_norms,
    pairwise_distance,
)

Pair = Tuple[float, int]
Distance = Callable[[np.ndarray, Any], np.ndarray]
Walk = Tuple[List[Pair], List[Pair], int]


def candidate_pairwise(rows: np.ndarray, metric: str) -> np.ndarray:
    """Candidate-to-candidate comparison distances, computed once so
    HNSW's Algorithm 4 (for a row that walked) and Vamana's robust prune
    loop over a matrix."""
    if metric == "l2":
        return l2sq_pairwise_via_norms(rows)
    return np.stack([pairwise_distance(row, rows, metric) for row in rows])


def beam_search_lists(
    distance: Distance,
    query: np.ndarray,
    links: Sequence[Any],
    entry: int,
    width: int,
    layer: Optional[int] = None,
    on_read: Optional[Callable[[int], None]] = None,
    table: Optional[List[float]] = None,
) -> Walk:
    """Beam search over adjacency lists: ``links[node]``, or
    ``links[node][layer]`` for HNSW's per-node layer lists.

    ``table``, when DiskANN's builder in fast mode passes one, is
    ``distance(query, node)`` for every node the lists can name; the
    reference kernel never does, and walks exactly as it always has.
    """
    seen: Set[int] = {entry}
    marked = 1
    if on_read is not None:
        on_read(1)
    dist = float(distance(query, [entry])[0]) if table is None else table[entry]
    frontier: List[Pair] = [(dist, entry)]
    beam: List[Pair] = [(-dist, entry)]  # max-heap via negated distance
    settled: List[Pair] = []
    while frontier:
        nearest = heapq.heappop(frontier)
        dist, node = nearest
        if dist > -beam[0][0] and len(beam) >= width:
            break
        settled.append(nearest)
        neighbors = links[node] if layer is None else links[node][layer]
        fresh = [n for n in neighbors if n not in seen]
        if not fresh:
            continue
        seen.update(fresh)
        marked += len(fresh)
        if on_read is not None:
            on_read(len(fresh))
        dists = distance(query, fresh).tolist() if table is None else [table[n] for n in fresh]
        worst = -beam[0][0]
        for neighbor_dist, neighbor in zip(dists, fresh):
            if len(beam) < width or neighbor_dist < worst:
                heapq.heappush(frontier, (neighbor_dist, neighbor))
                heapq.heappush(beam, (-neighbor_dist, neighbor))
                if len(beam) > width:
                    heapq.heappop(beam)
                worst = -beam[0][0]
    return sorted((-negdist, node) for negdist, node in beam), settled, marked


def beam_search_csr(
    distance: Distance,
    query: np.ndarray,
    offsets: np.ndarray,
    indices: np.ndarray,
    entry: int,
    width: int,
    on_read: Optional[Callable[[int], None]] = None,
    table: Optional[List[float]] = None,
) -> Walk:
    """Beam search over a CSR: node ``i``'s neighbours are
    ``indices[offsets[i]:offsets[i + 1]]`` (the query hot path).

    Both arrays are read through ``memoryview``s, so a hop slices a
    buffer and reads python ints without a numpy call.  ``table``, when
    given, is ``distance(query, node)`` for every node as a python list
    (:meth:`HNSWIndex._distance_table`): the hop then looks each fresh
    neighbour's distance up as it admits it and calls numpy not at all.
    """
    offsets, indices = memoryview(offsets), memoryview(indices)
    seen = bytearray(len(offsets) - 1)
    seen[entry] = 1
    marked = 1
    if on_read is not None:
        on_read(1)
    dist = float(distance(query, [entry])[0]) if table is None else table[entry]
    frontier: List[Pair] = [(dist, entry)]
    beam: List[Pair] = [(-dist, entry)]  # max-heap via negated distance
    settled: List[Pair] = []
    worst = dist       # -beam[0][0], kept current
    room = width - 1   # width - len(beam)
    heappop, heappush, heappushpop = heapq.heappop, heapq.heappush, heapq.heappushpop
    while frontier:
        nearest = heappop(frontier)
        dist, node = nearest
        if dist > worst and room <= 0:
            break
        settled.append(nearest)
        # Filter, then mark: a repeated edge is gathered once per repeat.
        fresh = [n for n in indices[offsets[node]:offsets[node + 1]] if not seen[n]]
        if not fresh:
            continue
        marked += len(fresh)
        if on_read is not None:
            on_read(len(fresh))
        if table is not None:
            for neighbor in fresh:
                seen[neighbor] = 1
                neighbor_dist = table[neighbor]
                if room > 0:
                    room -= 1
                    heappush(frontier, (neighbor_dist, neighbor))
                    heappush(beam, (-neighbor_dist, neighbor))
                    worst = -beam[0][0]
                elif neighbor_dist < worst:
                    heappush(frontier, (neighbor_dist, neighbor))
                    heappushpop(beam, (-neighbor_dist, neighbor))
                    worst = -beam[0][0]
            continue
        for neighbor in fresh:
            seen[neighbor] = 1
        for pair in zip(distance(query, fresh).tolist(), fresh):
            neighbor_dist, neighbor = pair
            if room > 0:
                room -= 1
                heappush(frontier, pair)
                heappush(beam, (-neighbor_dist, neighbor))
                worst = -beam[0][0]
            elif neighbor_dist < worst:
                heappush(frontier, pair)
                heappushpop(beam, (-neighbor_dist, neighbor))
                worst = -beam[0][0]
    return sorted((-negdist, node) for negdist, node in beam), settled, marked


def unseen_in_list(neighbors: Sequence[int], seen: Set[int]) -> List[int]:
    """The native iterator's unbounded expansion in reference mode: the
    neighbours not yet in ``seen``, in list order, marked on the way out.
    (The fast iterator inlines the same step over the CSR.)"""
    fresh = [n for n in neighbors if n not in seen]
    seen.update(fresh)
    return fresh


def filtered_top_k(
    search: Callable[[int], Tuple[List[Pair], int]],
    k: int,
    width: int,
    ids: np.ndarray,
    bitset: Optional[np.ndarray],
    metric: str,
) -> SearchResult:
    """Top-``k`` of ``search(width) -> (ascending pool, visited)``.

    Traversal may pass through filtered-out nodes (hnswlib semantics);
    only collection consults the bitset, so when fewer than ``k`` allowed
    rows survive, the walk is re-run with the beam doubled until ``k`` do
    or the beam covers the graph.
    """
    pool, visited = search(width)
    if bitset is not None:
        ntotal = int(ids.shape[0])
        pool = _allowed(pool, ids, bitset)
        while len(pool) < k and width < ntotal:
            width = min(width * 2, ntotal)
            pool, visited = search(width)
            pool = _allowed(pool, ids, bitset)
    top = pool[:k]
    found = ids[np.array([node for _, node in top], dtype=np.intp)]
    # Boundary contract (DESIGN.md §9): the sqrt runs in float32, like
    # every other kernel; float64 appears only inside SearchResult.
    internal = np.array([dist for dist, _ in top], dtype=np.float32)
    return SearchResult(found, boundary_distances(internal, metric), visited=visited)


def _allowed(pool: List[Pair], ids: np.ndarray, bitset: np.ndarray) -> List[Pair]:
    """The pool entries whose external id the bitset admits (one gather)."""
    keep = bitset[ids[np.array([node for _, node in pool], dtype=np.intp)]]
    return list(compress(pool, keep.tolist()))
