"""ANN physical scan operators (paper §II-C "Plan execution").

Each operator — top-k, range, iterator — runs against one segment
through a *search provider*, an object with the execution-layer index
interface, and charges what the provider reports it visited.  A provider
is the segment's vector index (local cache hit), a remote serving stub
(:mod:`repro.cluster.serving`), or a FLAT view of the segment's own
vectors (:meth:`repro.vindex.flat.FlatIndex.view`): the exact scan, the
expensive path Fig 11 measures.  Plan A takes the view without resolving
an index; any other plan takes it when its resolve finds none.  The
executor picks the provider and its :class:`ScanCharger` together
(``pipeline._search_provider``), from a plan prepared once a wave; the
operators hold no kernel of their own.

Simulated compute is charged per visited candidate: full-precision
indexes pay ``c_d``-style distance costs, PQ indexes pay ADC costs, and
bitmap scans add the per-record bitmap test.  An exact scan pays the
scalar distance rate per allowed row and no bitmap test, counted as
``annscan.brute_force_rows`` instead of ``annscan.visited``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol

import numpy as np

from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.vindex.api import SearchResult
from repro.vindex.iterator import SearchIterator


class SearchProvider(Protocol):
    """The execution-layer slice of the virtual index interface."""

    def search_with_filter(
        self, query: np.ndarray, k: int, bitset: Optional[np.ndarray] = None,
        **params: Any,
    ) -> SearchResult: ...

    def search_with_range(
        self, query: np.ndarray, radius: float, bitset: Optional[np.ndarray] = None,
        **params: Any,
    ) -> SearchResult: ...

    def search_iterator(
        self, query: np.ndarray, bitset: Optional[np.ndarray] = None,
        batch_size: int = 64, **params: Any,
    ) -> SearchIterator: ...


@dataclass
class ScanCharger:
    """Charges simulated compute for ANN scans on one segment.

    ``index_type`` None prices an exact scan of a segment searched
    without an index.
    """

    clock: SimulatedClock
    cost: DeviceCostModel
    metrics: MetricRegistry
    dim: int
    index_type: Optional[str]

    def _uses_codes(self) -> bool:
        return self.index_type in ("IVFPQ", "IVFPQFS")

    def charge_visits(self, visited: int, with_bitmap: bool = False) -> None:
        """Charge ``visited`` candidate inspections, at one rate per
        index type: graph traversal (CSR gather + contiguous distance
        blocks) and 4-bit fast-scan ADC at the vectorized rates; exact
        scans, 8-bit ADC and refinement at the scalar ones.
        """
        if visited <= 0:
            return
        if self.index_type is None:
            # The allowed rows were gathered, not tested one by one.
            self.clock.advance(self.cost.distance_cost(visited, self.dim))
            self.metrics.incr("annscan.brute_force_rows", visited)
            return
        if self._uses_codes():
            if self.index_type == "IVFPQFS":
                # In-register table shuffles (cached LUT, batched build).
                self.clock.advance(self.cost.adc_cost_fastscan(visited, 8))
            else:
                # ADC over PQ codes: m table lookups per code (m=8 default).
                self.clock.advance(self.cost.adc_cost(visited, 8))
        elif self.index_type in ("HNSW", "HNSWSQ", "DISKANN"):
            self.clock.advance(self.cost.distance_cost_vectorized(visited, self.dim))
        else:
            self.clock.advance(self.cost.distance_cost(visited, self.dim))
        if with_bitmap:
            self.clock.advance(self.cost.bitmap_cost(visited))
        self.metrics.incr("annscan.visited", visited)

    def charge_refine(self, k: int, sigma: float) -> None:
        """Charge the σ·k exact re-ranking distances."""
        amplified = int(max(1.0, sigma) * k)
        self.clock.advance(self.cost.distance_cost(amplified, self.dim))


def search_with_filter_op(
    provider: SearchProvider,
    query: np.ndarray,
    k: int,
    bitset: Optional[np.ndarray],
    charger: ScanCharger,
    sigma: float = 1.0,
    **search_params: Any,
) -> SearchResult:
    """SearchWithFilter: top-k through the provider, bitset-restricted."""
    result = provider.search_with_filter(query, k, bitset=bitset, **search_params)
    charger.charge_visits(result.visited, with_bitmap=bitset is not None)
    if charger._uses_codes():
        charger.charge_refine(k, sigma)
    return result


def search_with_range_op(
    provider: SearchProvider,
    query: np.ndarray,
    radius: float,
    bitset: Optional[np.ndarray],
    charger: ScanCharger,
    **search_params: Any,
) -> SearchResult:
    """SearchWithRange: all rows within ``radius``."""
    result = provider.search_with_range(query, radius, bitset=bitset, **search_params)
    charger.charge_visits(result.visited, with_bitmap=bitset is not None)
    return result


def search_iterator_op(
    provider: SearchProvider,
    query: np.ndarray,
    bitset: Optional[np.ndarray],
    charger: ScanCharger,
    batch_size: int,
    **search_params: Any,
) -> "_ChargingIterator":
    """SearchIterator: incremental distance-ordered stream for
    post-filter execution."""
    inner = provider.search_iterator(
        query, bitset=bitset, batch_size=batch_size, **search_params
    )
    return _ChargingIterator(inner, charger)


class _ChargingIterator:
    """Wraps a provider's iterator, charging per-batch visit deltas."""

    def __init__(self, inner: SearchIterator, charger: ScanCharger) -> None:
        self._inner = inner
        self._charger = charger
        self._charged_visits = 0

    @property
    def exhausted(self) -> bool:
        return self._inner.exhausted

    def next_batch(self) -> SearchResult:
        batch = self._inner.next_batch()
        # Iterator results carry cumulative visit counts; charge deltas.
        delta = max(0, batch.visited - self._charged_visits)
        self._charger.charge_visits(delta)
        self._charged_visits = batch.visited
        return batch
