"""HNSW: hierarchical navigable small world graph, from scratch.

Implements Malkov & Yashunin's algorithm: nodes get geometric random
levels, upper layers are sparse navigation graphs, layer 0 holds the full
neighborhood structure.  Insertion takes ``ef_construction`` candidates
per layer — the exact nearest earlier rows while the store is small
(the size rule below), a beam search above it — and keeps them by the
*heuristic* neighbor selection rule (Algorithm 4 of the paper); queries
use beam search with ``ef_search``.

Two extensions the BlendHouse paper relies on:

* **Filtered search** — the bitset is consulted when collecting results
  but traversal may pass through filtered-out nodes (hnswlib semantics),
  which is what makes the pre-filter bitset scan generic.
* **Native incremental iterator** — BlendHouse "extend[s] the hnswlib
  library to enable iterative-based search": :meth:`HNSWIndex.search_iterator`
  keeps the layer-0 beam state alive and streams results in distance
  order without restarting, unlike the generic restart wrapper.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import IndexCorruptError, IndexParameterError
from repro.vindex.api import (
    IndexFamily,
    SearchResult,
    VectorIndex,
    VisitKernel,
    boundary_distances,
    pairwise_distance,
)
from repro.vindex.graph import (
    beam_search_csr,
    beam_search_lists,
    candidate_pairwise,
    filtered_top_k,
)
from repro.vindex.image import (
    adjacency_bytes,
    adjacency_fields,
    array_field,
    check_offsets,
    freeze_adjacency,
    load_adjacency,
    thaw_adjacency,
)
from repro.vindex.iterator import SearchIterator

DEFAULT_M = 16
DEFAULT_EF_CONSTRUCTION = 100
DEFAULT_EF_SEARCH = 64

# A frozen l2 segment whose row store holds at most this many floats
# (``ntotal * dim``: 512 KiB of float32, so the ``rows - query`` scratch
# array stays cache-resident) gets one per-query distance table instead
# of a numpy call per hop.  The builder applies the same product to the
# rows before each one it inserts, for every metric: under it a row's
# candidates are the exact nearest earlier rows on each layer, above it
# they come from the construction walk.  The grids that chose it are in
# DESIGN.md §9; ``benchmarks/capture_kernel_state.py time`` re-runs them.
_TABLE_MAX_FLOATS = 1 << 17
# The most floats of distances one l2 ``add_with_ids`` keeps between
# the rows it inserts (16 MiB of float32), whatever the ``dim``: enough
# for a whole 2,048 x 64 segment added at once.
_KEPT_MAX_FLOATS = 1 << 22


def table_granted(metric: str, floats: int) -> bool:
    """The one rule for who scores a whole row store at once and walks
    on lookups: proven only for l2 (``einsum`` reduces each row on its
    own, so the whole store gives the gathered form's bits; ip and
    cosine go through a GEMV, which sums a full product in another order
    than a gathered one), and paying only for a cache-sized store."""
    return metric == "l2" and floats <= _TABLE_MAX_FLOATS


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``dists``, ordered by (distance,
    position): every tie at the ``k``-th value is kept for the stable
    sort, so the boundary goes by position too."""
    if dists.shape[0] > k:
        kth = np.partition(dists, k - 1)[k - 1]
        if kth == kth:  # not NaN
            part = np.flatnonzero(dists <= kth)
            return part[np.argsort(dists[part], kind="stable")[:k]]
    return np.argsort(dists, kind="stable")[:k]


class _Kept:
    """Squared l2 distances between the first rows one l2
    ``add_with_ids`` inserts and every row up to the last of them,
    filled before the first is inserted and kept for the call:
    ``table[node - start, other]`` is ``d(node, other)``, written from
    ``node``'s scores when ``other < node`` and from ``other``'s when it
    came later (subtract-``einsum`` is symmetric to the bit; the
    diagonal stays 0 and is never read).  ``rows[node - start]`` is
    that row as a slice of one flat ``memoryview``, indexed by
    ``other``: a lookup is a python float, no numpy call."""

    def __init__(self, start: int, table: np.ndarray) -> None:
        self.start = start
        self.table = table  # float32[rows, start + rows]
        width = table.shape[1]
        flat = memoryview(table.reshape(-1))
        self.rows = [flat[base : base + width] for base in range(0, len(flat), width)]

    def layer0(self, ef: int) -> Iterator[List[Tuple[float, int]]]:
        """Each kept row's ``ef`` nearest earlier rows, ascending by
        (distance, node), in row order: ``_nearest`` of the row's
        scores, bit for bit, from one partition and sort per block of
        rows.  A cell's sort key is its float32 bits (squared distances
        are at least +0, so their bits order as their values do) over
        its column, which makes every key unique and breaks ties by
        position.  NaN, and every cell at or past the row's own node,
        get the largest bits: after +inf, the row's own NaNs before the
        masked cells.  A block holds at most ``_KEPT_MAX_FLOATS // 256``
        cells (128 KiB of keys); larger ones raised a build's peak RSS,
        since a block's python candidate lists are live at once."""
        rows, width = self.table.shape
        step = max(1, _KEPT_MAX_FLOATS // 256 // width)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            nodes = np.arange(self.start + lo, self.start + hi)
            block = self.table[lo:hi, : nodes[-1]]
            keys = block.view(np.uint32).astype(np.uint64)
            keys[np.isnan(block) | (np.arange(nodes[-1]) >= nodes[:, None])] = 0xFFFFFFFF
            keys <<= np.uint64(32)
            keys |= np.arange(nodes[-1], dtype=np.uint64)
            if keys.shape[1] > ef:
                keys = np.partition(keys, ef - 1, axis=1)[:, :ef]
            keys.sort(axis=1)
            order = (keys & np.uint64(0xFFFFFFFF)).astype(np.intp)
            dists = np.take_along_axis(block, order, axis=1)
            for node, near, by in zip(nodes.tolist(), order.tolist(), dists.tolist()):
                count = min(node, ef)
                yield list(zip(by[:count], near[:count]))


class _FrozenLinks(NamedTuple):
    """Every layer's adjacency as one CSR over *slots* (DESIGN.md §5).

    Slot ``node`` (``node < ntotal``) is the node's layer-0 list, so
    layer 0 reads ``offsets`` / ``indices`` as a plain per-node CSR; the
    list of ``node`` on layer ``l >= 1`` is slot
    ``ntotal + upper_ptr[node] + l - 1``, and ``upper_ptr[node + 1] -
    upper_ptr[node]`` is the node's level.  The query kernels read all
    three through ``memoryview``s, so ``indices`` is int64 when frozen
    here and the image's narrow unsigned view when loaded.

    ``layer0`` is the builder's layer-0 lists, kept by the freeze of a
    built graph so its layer-0 hop iterates python lists rather than
    slicing the CSR (DESIGN.md §9, "Built graphs walk their own lists");
    it lives and dies with the CSR it was frozen with.  A loaded graph
    has None and walks the CSR: nothing is thawed on load.
    """

    offsets: np.ndarray    # uint32[slots + 1]
    indices: np.ndarray    # int64 (frozen) or uint16 / uint32 (loaded) [links]
    upper_ptr: np.ndarray  # uint32[ntotal + 1]
    layer0: Optional[List[List[int]]] = None


class HNSWIndex(VectorIndex):
    """Graph index with logarithmic layered routing.

    Parameters
    ----------
    m:
        Max neighbors per node on upper layers (layer 0 allows ``2 * m``).
    ef_construction:
        Beam width while inserting; larger builds better graphs, slower.
    """

    index_type = "HNSW"
    requires_training = False
    build_options = {"m": int, "ef_construction": int, "seed": int}
    search_knob = "ef_search"
    search_knob_default = DEFAULT_EF_SEARCH
    family = IndexFamily.GRAPH
    visit_kernel = VisitKernel.VECTORIZED

    def __init__(
        self,
        dim: int,
        metric: str = "l2",
        m: int = DEFAULT_M,
        ef_construction: int = DEFAULT_EF_CONSTRUCTION,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if m < 2:
            raise IndexParameterError(f"m must be at least 2, got {m}")
        if ef_construction < 1:
            raise IndexParameterError("ef_construction must be positive")
        self.m = m
        self.m_max0 = 2 * m
        self.ef_construction = ef_construction
        self.seed = seed
        self._level_mult = 1.0 / math.log(m)
        # Level draws: built on the first add, so a load constructs none.
        self._rng: Optional[np.random.Generator] = None
        self._vectors = np.empty((0, dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        # Adjacency in two forms, at least one present: the builder's
        # lists (``_links[node][level]`` -> neighbor node indices) while
        # rows are added, the frozen CSR for queries and the image.  A
        # mutation drops the CSR (the dirty flag), the next freeze drops
        # the lists (keeping layer 0's inside the frozen form), a load
        # starts CSR-only.  Each transition publishes the new form before
        # dropping the old and readers fetch lists-then-CSR, so
        # concurrent searches always find one.
        self._links: Optional[List[List[List[int]]]] = []
        self._frozen: Optional[_FrozenLinks] = None
        self._entry_point = -1
        self._max_level = -1

    # ------------------------------------------------------------------
    # Basic state
    # ------------------------------------------------------------------
    @property
    def ntotal(self) -> int:
        return int(self._ids.shape[0])

    def _gather_rows(self, nodes: Any) -> np.ndarray:
        """Float32 rows for ``nodes`` — an index array, or ``slice(None)``
        for the whole store (hook: the SQ subclass decodes its uint8
        codes on the gather instead of keeping a float mirror hot)."""
        return self._vectors[nodes]

    def _distance(self, query: np.ndarray, nodes: Any) -> np.ndarray:
        """Internal *comparison* distance: squared L2 (monotone in true L2)
        to avoid per-call sqrt; other metrics use their native form.

        The subtract-then-reduce form is deliberate: it is the same
        arithmetic as :func:`pairwise_distance`, which keeps traversal
        comparison order bit-stable against the canonical kernel (the
        norms identity would differ by cancellation ulps; DESIGN.md §9).
        Not shared with DiskANN's copy: a helper is one more frame a hop.
        """
        rows = self._gather_rows(np.asarray(nodes, dtype=np.int64))
        if self.metric == "l2":
            diff = rows - query
            return np.einsum("ij,ij->i", diff, diff)
        return pairwise_distance(query, rows, self.metric)

    def _distance_table(self, query: np.ndarray) -> Optional[List[float]]:
        """``_distance(query, node)`` for every node as a python list, or
        None where :func:`table_granted` says no."""
        if not table_granted(self.metric, self.ntotal * self.dim):
            return None
        diff = self._gather_rows(slice(None)) - query
        return np.einsum("ij,ij->i", diff, diff).tolist()

    def _scores(self, query: np.ndarray, stop: int) -> np.ndarray:
        """``_distance(query, node)`` for every node below ``stop`` at
        once, as float32: the builder's exact candidates.  l2 reduces
        each row on its own (the gathered form's bits); ip / cosine run
        one GEMV over those rows."""
        rows = self._vectors[:stop]
        if self.metric == "l2":
            diff = rows - query
            return np.einsum("ij,ij->i", diff, diff)
        return pairwise_distance(query, rows, self.metric)

    def _frozen_links(self) -> _FrozenLinks:
        """The CSR adjacency, frozen from the builder's lists after a
        mutation (immutable segments pay the flatten once, for their
        first search or save, whichever comes first)."""
        lists = self._links
        frozen = self._frozen
        if frozen is None:
            upper_ptr = np.zeros(len(lists) + 1, dtype=np.uint32)
            upper_ptr[1:] = np.cumsum(
                np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)) - 1
            )
            layer0 = [node[0] for node in lists]
            slots = layer0 + [layer for node in lists for layer in node[1:]]
            frozen = self._frozen = _FrozenLinks(*freeze_adjacency(slots), upper_ptr, layer0)
            self._links = None
        return frozen

    def _thawed_links(self) -> List[List[List[int]]]:
        """The builder's lists, thawed from the CSR on the first add
        after a freeze or a load.  Always from the CSR, never from the
        kept layer-0 lists: a search that fetched the frozen form before
        this add may still be walking them."""
        lists = self._links
        if lists is None:
            frozen = self._frozen
            n = self.ntotal
            slots = thaw_adjacency(frozen.offsets, frozen.indices)
            ptr = frozen.upper_ptr.tolist()
            lists = self._links = [
                [slots[node], *slots[n + ptr[node] : n + ptr[node + 1]]] for node in range(n)
            ]
        return lists

    def _random_level(self) -> int:
        uniform = float(self._rng.random())
        # Guard the log against an exactly-zero draw.
        return int(-math.log(max(uniform, 1e-12)) * self._level_mult)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        vectors, ids = self._check_add(vectors, ids)
        start = self.ntotal
        if self._rng is None:
            # Every inserted row drew exactly one level, so skipping
            # ``start`` draws resumes the stream where the index that was
            # saved left it: extending a loaded index builds the same
            # graph as extending the original.
            self._rng = np.random.default_rng(self.seed)
            self._rng.random(start)
        self._thawed_links()  # before the CSR is dropped
        self._frozen = None
        self._vectors = np.vstack([self._vectors, vectors])
        self._ids = np.concatenate([self._ids, ids])
        stop = self.ntotal
        # Every row's top layer, for the exact candidates of layers >= 1.
        levels = np.empty(stop, dtype=np.int64)
        levels[:start] = np.fromiter(map(len, self._links), dtype=np.int64, count=start) - 1
        # l2 builds carry ``d(node, link)`` beside each list this call
        # writes, in lists parallel to ``_links`` (None for a row of an
        # earlier call): subtract-einsum is symmetric to the bit, so a
        # back-link's score is the distance the new row was scored at
        # and a shrink looks up instead of gathering.  They also keep
        # the scores of the rows they insert under the rule, for the
        # layer-0 candidates and Algorithm 4.  ip / cosine GEMVs are not
        # symmetric: they gather.
        carried: Optional[List[Optional[List[List[float]]]]] = None
        kept: Optional[_Kept] = None
        if self.metric == "l2":
            carried = [None] * start
            kept = self._kept_tables(start, stop)
        nearest = iter(()) if kept is None else kept.layer0(self.ef_construction)
        for node in range(start, stop):
            self._insert(node, levels, carried, kept, next(nearest, None))

    def _kept_tables(self, start: int, stop: int) -> Optional[_Kept]:
        """The scores of this call's rows under the size rule, as many
        of them from ``start`` on as ``_KEPT_MAX_FLOATS`` holds."""
        exact = min(stop, _TABLE_MAX_FLOATS // self.dim + 1) - start
        fits = (math.isqrt(start * start + 4 * _KEPT_MAX_FLOATS) - start) // 2
        rows = min(int(exact), fits)
        if rows <= 0:
            return None
        table = np.zeros((rows, start + rows), dtype=np.float32)
        for row in range(rows):
            node = start + row
            scores = self._scores(self._vectors[node], node)
            table[row, :node] = scores
            table[:row, node] = scores[start:]
        return _Kept(start, table)

    def _insert(
        self,
        node: int,
        levels: np.ndarray,
        carried: Optional[List[Optional[List[List[float]]]]],
        kept: Optional[_Kept],
        nearest: Optional[List[Tuple[float, int]]],
    ) -> None:
        """Insert one row.  ``nearest`` is its layer-0 candidates when
        ``kept`` holds it, else None (and ``kept`` is not read)."""
        level = levels[node] = self._random_level()
        self._links.append([[] for _ in range(level + 1)])
        if carried is not None:
            carried.append([[] for _ in range(level + 1)])
        if self._entry_point < 0:
            self._entry_point = node
            self._max_level = level
            return

        query = self._vectors[node]
        top = min(level, self._max_level)
        walked = node * self.dim > _TABLE_MAX_FLOATS
        if not walked:
            # Under the size rule the row is scored against every earlier
            # row once, and each layer's candidates are the exact nearest
            # ``ef_construction`` earlier rows on it (DESIGN.md §9): no
            # descent, no walk.  A kept row's scores and layer-0
            # candidates are ready.
            if nearest is None:
                kept = None
                scores = self._scores(query, node)
                nearest = self._nearest_on_layer(scores, levels, node, 0)
            else:
                scores = kept.table[node - kept.start, :node]
            layers = [
                (layer, self._nearest_on_layer(scores, levels, node, layer))
                for layer in range(top, 0, -1)
            ]
            layers.append((0, nearest))
        else:
            kept = None
            layers = self._walk_layers(query, top)
        for layer, candidates in layers:
            m_max = self.m_max0 if layer == 0 else self.m
            neighbors = self._select_heuristic(candidates, self.m, kept, walked)
            self._links[node][layer] = [idx for _, idx in neighbors]
            if carried is not None:
                carried[node][layer] = [dist for dist, _ in neighbors]
            for dist, neighbor in neighbors:
                links = self._links[neighbor][layer]
                links.append(node)
                if carried is not None and carried[neighbor] is not None:
                    carried[neighbor][layer].append(dist)  # d(neighbor, node)
                if len(links) > m_max:
                    self._shrink_links(neighbor, layer, m_max, carried, kept, walked)
        if level > self._max_level:
            self._max_level = level
            self._entry_point = node

    def _nearest_on_layer(
        self, scores: np.ndarray, levels: np.ndarray, node: int, layer: int
    ) -> List[Tuple[float, int]]:
        """The ``ef_construction`` earlier rows on ``layer`` nearest the
        row ``scores`` belong to, ascending by (distance, node)."""
        if layer == 0:
            nodes = _nearest(scores, self.ef_construction)
        else:
            members = np.flatnonzero(levels[:node] >= layer)
            nodes = members[_nearest(scores[members], self.ef_construction)]
        return list(zip(scores[nodes].tolist(), nodes.tolist()))

    def _walk_layers(
        self, query: np.ndarray, top: int
    ) -> Iterator[Tuple[int, List[Tuple[float, int]]]]:
        """Above the size rule: greedy descent to layer ``top``, then
        ``(layer, beam)`` for each layer from ``top`` down, every beam
        started from the nearest node of the one above."""
        current = self._entry_point
        for layer in range(self._max_level, top, -1):
            current = self._greedy_closest(query, current, layer)
        for layer in range(top, -1, -1):
            candidates, _, _ = beam_search_lists(
                self._distance, query, self._links, current, self.ef_construction, layer
            )
            yield layer, candidates
            current = candidates[0][1]

    def _shrink_links(
        self,
        node: int,
        layer: int,
        m_max: int,
        carried: Optional[List[Optional[List[List[float]]]]],
        kept: Optional[_Kept],
        walked: bool,
    ) -> None:
        """Re-apply heuristic selection when a node's links overflow."""
        links = self._links[node][layer]
        own = None if carried is None else carried[node]
        if own is None:  # not carrying, or a row of an earlier call
            dists = self._distance(self._vectors[node], links).tolist()
        else:
            dists = own[layer]
        kept_links = self._select_heuristic(sorted(zip(dists, links)), m_max, kept, walked)
        self._links[node][layer] = [idx for _, idx in kept_links]
        if own is not None:
            own[layer] = [dist for dist, _ in kept_links]

    def _select_heuristic(
        self,
        candidates: List[Tuple[float, int]],
        m: int,
        kept: Optional[_Kept] = None,
        walked: bool = False,
    ) -> List[Tuple[float, int]]:
        """Algorithm 4: keep candidates closer to the query than to any
        already-selected neighbor, which preserves graph diversity.

        ``candidates`` arrive ascending: ``(distance to the query, node)``
        pairs.  A selected candidate's distances to the others are read
        from one of three sources: for a row that ``walked`` (above the
        size rule), the
        norms-form matrix of :func:`candidate_pairwise`; under the rule,
        subtract-form, looked up in ``kept`` by node when the selected
        row is one of its rows, else gathered once as a python list.
        """
        if len(candidates) <= m:
            return candidates
        nodes = block = None
        if walked:
            nodes = np.array([idx for _, idx in candidates], dtype=np.int64)
            block = candidate_pairwise(self._vectors[nodes], self.metric)
        selected: List[Tuple[float, int]] = []
        rejected: List[Tuple[float, int]] = []
        by_node: List[memoryview] = []  # kept rows of the selected
        by_row: List[List[float]] = []  # the others', by candidate position
        for row, pair in enumerate(candidates):
            dist, node = pair
            # ``not <=`` rather than ``>``: a NaN rejects.  A ``break``
            # out of either distance loop rejects the candidate.
            for distances in by_node:
                if not dist <= distances[node]:
                    break
            else:
                for distances in by_row:
                    if not dist <= distances[row]:
                        break
                else:
                    selected.append(pair)
                    if len(selected) == m:
                        break  # (an ``else`` clause: leaves the candidate loop)
                    if kept is not None and node >= kept.start:
                        by_node.append(kept.rows[node - kept.start])
                    elif walked:
                        by_row.append(block[row].tolist())
                    else:
                        if nodes is None:
                            nodes = np.array([idx for _, idx in candidates], dtype=np.int64)
                        by_row.append(self._distance(self._vectors[node], nodes).tolist())
                    continue
            rejected.append(pair)
        # Fill remaining slots with nearest rejected candidates (hnswlib
        # behaviour keeps connectivity on clustered data).
        return selected + rejected[: m - len(selected)]

    # ------------------------------------------------------------------
    # Traversal primitives
    # ------------------------------------------------------------------
    def _greedy_closest(self, query: np.ndarray, start: int, layer: int) -> int:
        """One layer of the descent over the lists: the builder's, above
        the size rule (queries take :meth:`_greedy_closest_fast`)."""
        current = start
        current_dist = float(self._distance(query, [current])[0])
        improved = True
        while improved:
            improved = False
            links = self._links[current][layer] if layer < len(self._links[current]) else []
            if not links:
                break
            dists = self._distance(query, links)
            best = int(np.argmin(dists))
            best_dist = float(dists[best])
            if best_dist < current_dist:
                current = links[best]
                current_dist = best_dist
                improved = True
        return current

    def _greedy_closest_fast(
        self,
        query: np.ndarray,
        start: int,
        layer: int,
        frozen: _FrozenLinks,
        table: Optional[List[float]],
    ) -> int:
        """:meth:`_greedy_closest` over the CSR, read through
        ``memoryview``s: same distances, same first-minimum tie-break,
        same neighbor order — through numpy (``argmin``) without a
        table, through ``min`` + ``list.index`` with one."""
        offsets, indices, upper_ptr = map(memoryview, frozen[:3])
        base = self.ntotal + layer - 1
        current = start
        if table is None:
            current_dist = float(self._distance(query, [current])[0])
        else:
            current_dist = table[current]
        while True:
            slot = base + upper_ptr[current]
            links = indices[offsets[slot]:offsets[slot + 1]]
            if not links:
                break
            if table is None:
                dists = self._distance(query, links)
                best = int(np.argmin(dists))
                best_dist = float(dists[best])
            else:
                dists = [table[n] for n in links]
                best_dist = min(dists)
                best = dists.index(best_dist)
            if best_dist >= current_dist:
                break
            current = links[best]
            current_dist = best_dist
        return current

    def _descend(self, query: np.ndarray, table: Optional[List[float]]) -> int:
        """Greedy walk from the entry point through the upper layers of
        the CSR; returns the layer-0 entry."""
        current = self._entry_point
        frozen = self._frozen_links()
        for layer in range(self._max_level, 0, -1):
            current = self._greedy_closest_fast(query, current, layer, frozen, table)
        return current

    def _query_layer0(
        self, query: np.ndarray, entry: int, table: Optional[List[float]], ef: int
    ) -> Tuple[List[Tuple[float, int]], int]:
        """Layer-0 beam search over the CSR (over the kept lists of a
        built graph): the ascending (distance, node) beam and the visited
        count."""
        frozen = self._frozen_links()
        beam, _, marked = beam_search_csr(
            self._distance, query, frozen.offsets, frozen.indices, entry, ef,
            table=table, lists=frozen.layer0,
        )
        return beam, marked

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        ef_search: int = DEFAULT_EF_SEARCH,
        **search_params: Any,
    ) -> SearchResult:
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if self.ntotal == 0 or k <= 0 or self._entry_point < 0:
            return SearchResult.empty()
        # One table per call: the descent, the walk and every widening
        # re-walk of filtered_top_k look distances up in it.
        table = self._distance_table(query)
        entry = self._descend(query, table)
        search = functools.partial(self._query_layer0, query, entry, table)
        return filtered_top_k(search, k, max(int(ef_search), k), self._ids, bitset, self.metric)

    def search_iterator(
        self,
        query: np.ndarray,
        bitset: Optional[np.ndarray] = None,
        batch_size: int = 64,
        ef_search: int = DEFAULT_EF_SEARCH,
        **search_params: Any,
    ) -> "HNSWSearchIterator":
        """Native incremental iterator: keeps the beam alive across batches."""
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        return HNSWSearchIterator(self, query, bitset, batch_size, max(int(ef_search), batch_size))

    # ------------------------------------------------------------------
    # Persistence / accounting
    # ------------------------------------------------------------------
    def _link_bytes(self) -> int:
        frozen = self._frozen_links()
        return adjacency_bytes(frozen.offsets, frozen.indices)

    def memory_bytes(self) -> int:
        return int(self._vectors.nbytes) + int(self._ids.nbytes) + self._link_bytes()

    def _rows_payload(self) -> Dict[str, Any]:
        """The persisted form of the row store (hook for the SQ subclass)."""
        return {"vectors": self._vectors}

    def _load_rows(self, payload: Dict[str, Any]) -> None:
        self._vectors = array_field(payload, "vectors", np.float32, self.ntotal, self.dim)

    def to_payload(self) -> Dict[str, Any]:
        frozen = self._frozen_links()
        return {
            "index_type": self.index_type,
            "dim": self.dim,
            "metric": self.metric,
            "m": self.m,
            "ef_construction": self.ef_construction,
            "seed": self.seed,
            **self._rows_payload(),
            "ids": self._ids,
            **adjacency_fields("link", frozen.offsets, frozen.indices, self.ntotal),
            "upper_ptr": frozen.upper_ptr,
            "entry_point": self._entry_point,
            "max_level": self._max_level,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "HNSWIndex":
        index = cls(
            payload["dim"],
            payload["metric"],
            m=payload["m"],
            ef_construction=payload["ef_construction"],
            seed=payload["seed"],
        )
        index._ids = array_field(payload, "ids", np.int64, None)
        n = index.ntotal
        index._load_rows(payload)
        # Everything the query kernels gather through is checked once
        # here: the CSR, the slot arithmetic of the upper layers, and
        # that the descent can only ever step onto a node that has a
        # list on the layer it is walking.
        offsets, indices = load_adjacency(payload, "link", n)
        upper_ptr = array_field(payload, "upper_ptr", np.uint32, n + 1)
        entry, top = payload["entry_point"], payload["max_level"]
        upper = offsets.shape[0] - 1 - n
        check_offsets("upper_ptr", upper_ptr, upper)
        levels = np.diff(upper_ptr)
        well_formed = isinstance(entry, int) and isinstance(top, int)
        if well_formed and n == 0:
            well_formed = entry == -1 and top == -1
        elif well_formed:
            well_formed = 0 <= entry < n and top == levels.max() == levels[entry]
        if well_formed and upper:
            slot_layer = np.arange(upper) - np.repeat(upper_ptr[:-1], levels)
            link_layer = np.repeat(slot_layer, np.diff(offsets[n:]))
            well_formed = bool((levels[indices[offsets[n]:]] > link_layer).all())
        if not well_formed:
            raise IndexCorruptError("HNSW image: entry point, levels and upper links disagree")
        index._links = None
        index._frozen = _FrozenLinks(offsets, indices, upper_ptr)
        index._entry_point = entry
        index._max_level = top
        return index


class HNSWSearchIterator(SearchIterator):
    """Incremental distance-ordered stream backed by a live HNSW beam.

    Each :meth:`next_batch` resumes the layer-0 expansion from the kept
    candidate heap instead of restarting the search, so iterating to
    depth ``d`` costs roughly one search to depth ``d`` — not the
    ``d + d/2 + ...`` of the restart wrapper.
    """

    def __init__(
        self,
        index: HNSWIndex,
        query: np.ndarray,
        bitset: Optional[np.ndarray],
        batch_size: int,
        ef: int,
    ) -> None:
        if batch_size <= 0:
            raise IndexParameterError("batch_size must be positive")
        self._index = index
        self._query = query
        self._batch_size = batch_size
        self._ef = ef
        self._seen = bytearray(index.ntotal)
        self._table: Optional[List[float]] = None
        # The bitset by node, as bytes: a pop reads a python int.
        self._allowed = None if bitset is None else bitset[index._ids].tobytes()
        self._candidates: List[Tuple[float, int]] = []  # frontier min-heap
        self._pool: List[Tuple[float, int]] = []        # settled, not yet emitted
        self._graph_exhausted = index.ntotal == 0 or index._entry_point < 0
        self.visited_total = 0
        self._offsets = self._indices = self._lists = None  # stay None on an empty graph
        if not self._graph_exhausted:
            frozen = index._frozen_links()
            self._offsets, self._indices = memoryview(frozen.offsets), memoryview(frozen.indices)
            self._lists = frozen.layer0
            table = self._table = index._distance_table(query)
            current = index._descend(query, table)
            dist = float(index._distance(query, [current])[0]) if table is None else table[current]
            self._seen[current] = 1
            self.visited_total += 1
            heapq.heappush(self._candidates, (dist, current))

    @property
    def exhausted(self) -> bool:
        return self._graph_exhausted and not self._pool

    def _expand_fast(self, fill: int, slack: int) -> None:
        """Pop the nearest frontier node, pool it if the bitset allows it
        and push its unseen neighbours, until the pool holds ``fill``
        entries (or ``slack`` that the frontier cannot improve on), as
        one loop whose state lives in locals and is written back once.
        A neighbour is marked as it is gathered, in one pass over the
        list (the kept lists of a built graph, else the CSR slice)."""
        candidates, pool, seen = self._candidates, self._pool, self._seen
        offsets, indices, lists = self._offsets, self._indices, self._lists
        table, allowed = self._table, self._allowed
        distance, query = self._index._distance, self._query
        visited = self.visited_total
        heappop, heappush = heapq.heappop, heapq.heappush
        while candidates and len(pool) < fill:
            if len(pool) >= slack and candidates[0][0] > pool[0][0]:
                break
            nearest = heappop(candidates)
            node = nearest[1]
            if allowed is None or allowed[node]:
                heappush(pool, nearest)
            neighbors = indices[offsets[node]:offsets[node + 1]] if lists is None else lists[node]
            if table is not None:
                for neighbor in neighbors:
                    if seen[neighbor]:
                        continue
                    seen[neighbor] = 1
                    visited += 1
                    heappush(candidates, (table[neighbor], neighbor))
                continue
            fresh = []
            for neighbor in neighbors:
                if not seen[neighbor]:
                    seen[neighbor] = 1
                    fresh.append(neighbor)
            if not fresh:
                continue
            visited += len(fresh)
            for pair in zip(distance(query, fresh).tolist(), fresh):
                heappush(candidates, pair)
        self.visited_total = visited
        self._graph_exhausted = not candidates

    def next_batch(self) -> SearchResult:
        """Return up to ``batch_size`` more rows in ascending distance.

        The frontier is expanded until the pool holds ``ef`` settled
        candidates (quality slack on top of the batch size), then the
        nearest ``batch_size`` are emitted.  A pooled entry is only
        emitted once the nearest frontier node is farther than it, so
        within-run ordering matches a one-shot search of the same depth.
        """
        want = max(self._batch_size, 1)
        slack = max(self._ef, want)
        self._expand_fast(want + slack, slack)
        index = self._index
        out_nodes: List[int] = []
        out_dists: List[float] = []
        while self._pool and len(out_nodes) < want:
            dist, node = heapq.heappop(self._pool)
            out_nodes.append(node)
            out_dists.append(dist)
        return SearchResult(
            index._ids[np.array(out_nodes, dtype=np.intp)],
            boundary_distances(np.asarray(out_dists, dtype=np.float32), index.metric),
            visited=self.visited_total,
        )
