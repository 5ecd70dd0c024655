"""Stateless workers with hierarchical vector-index caches.

A worker owns no data: segments and indexes live in the shared object
store, and the worker keeps an in-memory index cache (one LRU) plus a
local-disk cache (paper §II-D "Hierarchical vector index cache").

Index resolution for a scheduled segment returns one of three tiers the
cache-miss experiment (Fig 11) measures:

* ``local`` — the index is resident in this worker's memory;
* ``serving`` — another worker still holds it; search via RPC (Fig 4);
* ``brute`` — nobody holds it; the ANN scan falls back to brute force
  while a background load warms this worker's cache.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.rpc import RpcFabric
from repro.cluster.serving import RemoteSearchProvider
from repro.errors import ObjectNotFoundError, WorkerUnavailableError
from repro.executor.annscan import SearchProvider
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.cache import HierarchicalIndexCache, LRUCache, object_size
from repro.storage.localdisk import LocalDisk
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment
from repro.vindex.api import SearchResult, VectorIndex
from repro.vindex.registry import deserialize_index

DEFAULT_MEM_DATA_BYTES = 4 << 30
DEFAULT_DISK_BYTES = 16 << 30

SegmentLookup = Callable[[str], Optional[Segment]]


class Worker:
    """One compute node inside a virtual warehouse."""

    def __init__(
        self,
        worker_id: str,
        clock: SimulatedClock,
        cost: DeviceCostModel,
        store: ObjectStore,
        fabric: RpcFabric,
        metrics: Optional[MetricRegistry] = None,
        mem_data_bytes: int = DEFAULT_MEM_DATA_BYTES,
        disk_bytes: int = DEFAULT_DISK_BYTES,
    ) -> None:
        self.worker_id = worker_id
        self.clock = clock
        self.cost = cost
        self.store = store
        self.fabric = fabric
        self.metrics = metrics or MetricRegistry()
        self.alive = True
        self._disk = LocalDisk(clock, disk_bytes, cost, self.metrics)
        self.cache = HierarchicalIndexCache(
            clock, LRUCache(mem_data_bytes, size_of=object_size), self._disk,
            store, deserialize_index, cost, self.metrics,
        )
        # index_key -> simulated completion time of an async warm-up load.
        self._pending_loads: Dict[str, float] = {}
        # The instant completed loads were last promoted: promoting again
        # before the clock moves finds nothing new.
        self._promoted_at: Optional[float] = None
        # Memoized has_index handshakes: (owner_id, index_key) -> bool,
        # so steady-state serving pays one RPC per search, not two.
        self._known_remote: Dict[Tuple[str, str], bool] = {}
        endpoint = fabric.endpoint(worker_id)
        endpoint.register("search", self._serve_search)
        endpoint.register("has_index", self.has_index_in_memory)

    # ------------------------------------------------------------------
    # Cache state
    # ------------------------------------------------------------------
    def has_index_in_memory(self, index_key: str) -> bool:
        """Whether a live index is resident in RAM right now."""
        return self.cache.contains_in_memory(index_key)

    def preload(self, index_key: str) -> bool:
        """Synchronously pull an index into memory + disk (paper §II-D
        cache-aware preload); charges the full fetch cost."""
        ok = self.cache.preload(index_key)
        if ok:
            self._pending_loads.pop(index_key, None)
        return ok

    def schedule_background_load(self, index_key: str) -> None:
        """Start an async warm-up load; completes after the simulated
        object-store fetch time without blocking the current query."""
        if index_key in self._pending_loads or self.has_index_in_memory(index_key):
            return
        try:
            size = self.store.size_of(index_key)
        except ObjectNotFoundError:
            return
        done_at = self.clock.now + self.cost.object_store_read(size)
        self._pending_loads[index_key] = done_at
        if done_at <= self.clock.now:
            self._promoted_at = None  # due already: the next call promotes it
        self.metrics.incr("worker.background_loads")

    def scan_order(
        self, segment_ids: List[str], index_key_of: Callable[[str], Optional[str]]
    ) -> Tuple[List[str], int, Dict[str, Optional[str]]]:
        """``segment_ids`` reordered to scan the resident ones first, how
        many those are, and each segment's index key (for the wave's
        :meth:`resolve_provider` calls).

        Resident means the segment's index is in this worker's memory
        tier once completed background loads are promoted; each group
        keeps the given order.  With ``k`` of ``n`` indexes resident,
        LRU then hits all ``k`` on every scan of the share, where a
        fixed order evicts each index just before it is needed once
        ``n > k``.  Charges nothing.
        """
        self._promote_completed_loads()
        resident: List[str] = []
        cold: List[str] = []
        keys: Dict[str, Optional[str]] = {}
        for segment_id in segment_ids:
            key = keys[segment_id] = index_key_of(segment_id)
            if key is not None and self.cache.contains_in_memory(key):
                resident.append(segment_id)
            else:
                cold.append(segment_id)
        return resident + cold, len(resident), keys

    def _promote_completed_loads(self) -> None:
        """Move every background load due by now into the memory tier,
        once per instant of the clock: a wave's :meth:`scan_order` does
        it and the wave's resolves, captured at the same instant, skip."""
        now = self.clock.now
        if now == self._promoted_at:
            return
        self._promoted_at = now
        completed = [key for key, t in self._pending_loads.items() if t <= now]
        for key in completed:
            del self._pending_loads[key]
            # The fetch cost was paid by the async-load delay; promotion
            # itself is free.
            with self.clock.paused():
                self.cache.preload(key)

    def invalidate(self, index_key: str) -> None:
        """Drop one index from all local tiers (compaction retired it)."""
        self.cache.invalidate(index_key)
        self._pending_loads.pop(index_key, None)
        for memo_key in [k for k in self._known_remote if k[1] == index_key]:
            del self._known_remote[memo_key]

    def forget_remote_holdings(self) -> None:
        """Drop memoized has_index handshakes (topology changed)."""
        self._known_remote.clear()

    def lose_memory(self) -> None:
        """Simulate a restart: RAM cache gone, local disk kept."""
        self.cache.clear_memory()
        self._pending_loads.clear()

    # ------------------------------------------------------------------
    # Index resolution
    # ------------------------------------------------------------------
    def resolve_provider(
        self,
        segment: Segment,
        index_key: Optional[str],
        previous_owner: Optional["Worker"],
        serving_enabled: bool = True,
    ) -> Tuple[Optional[SearchProvider], str]:
        """(provider, tier) for one scheduled segment.

        tier ∈ {"local", "disk", "serving", "brute"}.
        """
        if index_key is None:
            return None, "brute"
        self._promote_completed_loads()
        if self.cache.contains_in_memory(index_key):
            index, _ = self.cache.get(index_key)
            self._attach_hooks(index, segment)
            self.metrics.incr("worker.local_hits")
            return index, "local"
        if index_key in self._disk:
            index, _ = self.cache.get(index_key)  # promotes from disk
            self._attach_hooks(index, segment)
            self.metrics.incr("worker.disk_hits")
            return index, "disk"
        if serving_enabled and previous_owner is not None:
            memo_key = (previous_owner.worker_id, index_key)
            holds = self._known_remote.get(memo_key)
            if holds is None:
                try:
                    holds = self.fabric.call(
                        previous_owner.worker_id, "has_index", 64, 8, index_key
                    )
                except WorkerUnavailableError:
                    holds = False
                self._known_remote[memo_key] = bool(holds)
            if holds:
                self.metrics.incr("worker.serving_calls")
                self.schedule_background_load(index_key)
                return (
                    RemoteSearchProvider(
                        fabric=self.fabric,
                        target_id=previous_owner.worker_id,
                        index_key=index_key,
                        dim=segment.dim,
                        ntotal=segment.row_count,
                    ),
                    "serving",
                )
        # Full miss: brute force now, warm up in the background.
        self.schedule_background_load(index_key)
        self.metrics.incr("worker.brute_fallbacks")
        return None, "brute"

    def _attach_hooks(self, index: VectorIndex, segment: Segment) -> None:
        index.set_refiner(segment.vectors_at)
        index.set_io_charger(lambda nbytes: self.clock.advance(self.cost.disk_read(nbytes)))

    # ------------------------------------------------------------------
    # Serving endpoint
    # ------------------------------------------------------------------
    def _serve_search(
        self,
        index_key: str,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray],
        params: Dict,
    ) -> SearchResult:
        """Remote search against this worker's cached index.

        Charges nothing itself: the requester's ``ScanCharger`` prices
        the visits at the rate a local search of the segment pays, so a
        served search costs a local one plus the RPC.

        Raises
        ------
        WorkerUnavailableError
            When the index is not resident here (caller falls back).
        """
        if not self.cache.contains_in_memory(index_key):
            raise WorkerUnavailableError(
                f"{self.worker_id} no longer caches {index_key!r}"
            )
        index, _ = self.cache.get(index_key)
        result = index.search_with_filter(query, k, bitset=bitset, **params)
        self.metrics.incr("worker.served_searches")
        return result
