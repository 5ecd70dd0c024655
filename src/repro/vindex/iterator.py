"""Search iterators for the post-filter strategy (paper §III-B).

Two kinds exist:

* Native iterators — HNSW keeps its beam alive across batches
  (:class:`repro.vindex.hnsw.HNSWSearchIterator`), the extension the
  paper added to hnswlib; FLAT scores every allowed row once and emits
  slices of one sort (:class:`repro.vindex.flat.FlatSearchIterator`).
* :class:`GenericRestartIterator` — the generic wrapper (as used by
  SingleStore-V) for index types without incremental search: each time
  more rows are needed it *restarts* the top-k search from scratch with a
  doubled ``k``.  Rows already emitted are skipped by id, since a
  deeper search need not extend a shallower one row for row; the
  redundant search work is the overhead the native iterator avoids.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

import numpy as np

from repro.errors import IndexParameterError
from repro.vindex.api import SearchResult


class SearchIterator(abc.ABC):
    """Incremental, approximately distance-ordered result stream."""

    @property
    @abc.abstractmethod
    def exhausted(self) -> bool:
        """True once no further rows can be produced."""

    @abc.abstractmethod
    def next_batch(self) -> SearchResult:
        """Up to ``batch_size`` more rows; empty result when exhausted."""

    def __iter__(self):
        while not self.exhausted:
            batch = self.next_batch()
            if len(batch) == 0:
                break
            yield batch


class GenericRestartIterator(SearchIterator):
    """Restart-with-doubled-k wrapper over any index's top-k search.

    Parameters
    ----------
    index:
        Any :class:`repro.vindex.api.VectorIndex`.
    query:
        The query vector.
    bitset:
        Optional allowed-rows bitset forwarded to the underlying search.
    batch_size:
        Rows returned per :meth:`next_batch`; also the first search depth.
    """

    def __init__(
        self,
        index: Any,
        query: np.ndarray,
        bitset: Optional[np.ndarray] = None,
        batch_size: int = 64,
        **search_params: Any,
    ) -> None:
        if batch_size <= 0:
            raise IndexParameterError("batch_size must be positive")
        self._index = index
        self._query = np.asarray(query, dtype=np.float32)
        self._bitset = bitset
        self._batch_size = batch_size
        self._search_params = search_params
        self._seen: set = set()                # ids of the rows already handed out
        self._current_k = batch_size
        self._last: Optional[SearchResult] = None
        self._window_ids: list = []            # self._last.ids as Python ints
        self._cursor = 0                       # window rows before it are all seen
        self._done = index.ntotal == 0
        self.restarts = 0                      # how many from-scratch searches ran
        self.visited_total = 0                 # cumulative candidate visits (incl. redundant)

    @property
    def exhausted(self) -> bool:
        return self._done

    def _run_search(self, k: int) -> SearchResult:
        self.restarts += 1
        result = self._index.search_with_filter(
            self._query, k, bitset=self._bitset, **self._search_params
        )
        self.visited_total += result.visited
        return result

    def next_batch(self) -> SearchResult:
        """Produce the next ``batch_size`` rows, restarting with larger k
        whenever the previous search did not reach deep enough.

        A batch is the window's next rows whose ids have not been
        emitted.  Rows are skipped by id, not by position: the top-k of a
        larger k need not extend the smaller one (ties at the partition
        boundary; DiskANN's beam and IVFPQ's refine shortlist grow with
        k), and a positional skip would emit some rows twice and drop
        others.
        """
        if self._done:
            return SearchResult.empty(visited=self.visited_total)
        need = len(self._seen) + self._batch_size
        if self._last is None or (len(self._last) < need and len(self._last) >= self._current_k):
            # Previous search saturated its k: double until deep enough.
            # A window shorter than its k saw every row the index can
            # give (or the bitset admits), so no restart can find more.
            while self._current_k < need:
                self._current_k *= 2
            self._last = self._run_search(self._current_k)
            self._window_ids = self._last.ids.tolist()
            self._cursor = 0
        window = self._last
        picked = []
        cursor = self._cursor
        while cursor < len(self._window_ids) and len(picked) < self._batch_size:
            row_id = self._window_ids[cursor]
            if row_id not in self._seen:
                self._seen.add(row_id)
                picked.append(cursor)
            cursor += 1
        self._cursor = cursor
        if len(window) < self._current_k and all(
            row_id in self._seen for row_id in self._window_ids[cursor:]
        ):
            self._done = True
        elif len(self._seen) >= self._index.ntotal:
            self._done = True
        return SearchResult(
            window.ids[picked], window.distances[picked], visited=self.visited_total
        )
