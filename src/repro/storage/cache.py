"""Cache tiers used throughout BlendHouse.

Two building blocks:

* :class:`LRUCache` — generic byte-budgeted LRU over arbitrary values
  (sized by :func:`object_size` for live indexes and column blocks).
* :class:`HierarchicalIndexCache` — the memory → local disk → object store
  read path for vector indexes (§II-D): a hit in RAM is nearly free, a
  disk hit avoids the remote fetch, and a full miss pays object-store
  cost and back-fills both tiers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from repro.observe.events import emit_event
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.localdisk import LocalDisk
from repro.storage.objectstore import ObjectStore


class LRUCache:
    """Byte-budgeted least-recently-used cache.

    Parameters
    ----------
    capacity_bytes:
        Eviction threshold for the sum of entry sizes.
    size_of:
        Maps a cached value to its size in bytes.  Defaults to ``len``.
    """

    def __init__(
        self,
        capacity_bytes: int,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._size_of = size_of or len
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Optional ``(key, size_bytes)`` callback fired on every
        # capacity-pressure eviction; the hierarchical cache uses it to
        # emit structured eviction events.
        self.on_evict: Optional[Callable[[str, int], None]] = None

    @property
    def used_bytes(self) -> int:
        """Sum of sizes of currently cached entries."""
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value or None, updating recency and counters."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: str, value: Any) -> bool:
        """Insert ``value``; returns False if it alone exceeds capacity.

        Any existing entry under ``key`` is displaced *before* the
        capacity check: when a rebuilt index outgrows the cache the stale
        predecessor must stop serving, not linger as a phantom hit.
        """
        size = int(self._size_of(value))
        displaced = self._entries.pop(key, None)
        if displaced is not None:
            self._used -= displaced[1]
        if size > self.capacity_bytes:
            if displaced is not None:
                self.evictions += 1
                if self.on_evict is not None:
                    self.on_evict(key, displaced[1])
            return False
        while self._used + size > self.capacity_bytes and self._entries:
            evicted_key, (_, evicted_size) = self._entries.popitem(last=False)
            self._used -= evicted_size
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted_size)
        self._entries[key] = (value, size)
        self._used += size
        return True

    def evict(self, key: str) -> bool:
        """Explicitly remove one entry; returns whether it was present."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry[1]
        return True

    def clear(self) -> None:
        """Remove everything but keep hit/miss counters."""
        self._entries.clear()
        self._used = 0

    def keys(self):
        """Cached keys from least to most recently used."""
        return list(self._entries.keys())


def object_size(value: Any) -> int:
    """Best-effort byte size of a cached value.

    Values exposing ``memory_bytes()`` (vector indexes) report exactly;
    bytes-like values use their length; everything else is charged a
    nominal size so the cache still bounds entry counts.
    """
    probe = getattr(value, "memory_bytes", None)
    if callable(probe):
        return int(probe())
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, float)):
        return int(nbytes)
    return 1024


class HierarchicalIndexCache:
    """Memory → local disk → object store read path (paper §II-D).

    ``get`` returns ``(value, tier)`` where tier is one of ``"memory"``,
    ``"disk"``, ``"remote"`` — benches use the tier to attribute latency.
    The deserializer turns persisted bytes back into a live index; the
    memory tier holds live objects, the disk tier holds bytes.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        memory: LRUCache,
        disk: Optional[LocalDisk],
        store: ObjectStore,
        deserialize: Callable[[bytes], Any],
        cost_model: Optional[DeviceCostModel] = None,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self._clock = clock
        self._memory = memory
        self._disk = disk
        self._store = store
        self._deserialize = deserialize
        self._cost = cost_model or DeviceCostModel()
        self._metrics = metrics or MetricRegistry()
        self._memory.on_evict = self._on_memory_evict

    def _on_memory_evict(self, key: str, nbytes: int) -> None:
        self._metrics.incr("index_cache.memory_evictions")
        emit_event(
            self._metrics, "cache.eviction", tier="memory",
            key=key, nbytes=nbytes,
        )

    def get(self, key: str) -> Tuple[Any, str]:
        """Fetch index ``key`` through the hierarchy, back-filling tiers.

        Raises
        ------
        ObjectNotFoundError
            If the key exists in no tier (index never persisted).
        """
        # Meter readings, not ``clock.now``: a scan resolves its index
        # inside a capture, where charges leave ``now`` where it was.
        _, start = self._clock.meter()
        value, tier = self._resolve(key)
        _, end = self._clock.meter()
        self._metrics.record_latency(f"index_cache.tier.{tier}", end - start)
        return value, tier

    def _resolve(self, key: str) -> Tuple[Any, str]:
        value = self._memory.get(key)
        if value is not None:
            # A resident index costs one pointer chase to reach; the
            # bytes a search actually touches are charged by the ANN
            # scan operators per visited candidate.
            self._clock.advance(self._cost.ram_latency_s)
            self._metrics.incr("index_cache.memory_hits")
            return value, "memory"
        if self._disk is not None and key in self._disk:
            payload = self._disk.read(key)
            value = self._deserialize(payload)
            self._fill_memory(key, value, source="disk")
            self._metrics.incr("index_cache.disk_hits")
            return value, "disk"
        payload = self._store.get(key)  # raises ObjectNotFoundError
        value = self._deserialize(payload)
        if self._disk is not None:
            self._disk.write(key, payload)
        self._fill_memory(key, value, source="remote")
        self._metrics.incr("index_cache.remote_fetches")
        return value, "remote"

    def _fill_memory(self, key: str, value: Any, source: str = "remote") -> None:
        """Back-fill the RAM tier; an oversize value still displaces any
        stale predecessor (see :meth:`LRUCache.put`) but is not cached."""
        if self._memory.put(key, value):
            emit_event(
                self._metrics, "cache.promotion", tier="memory",
                key=key, source=source,
            )
        else:
            self._metrics.incr("index_cache.memory_insert_rejected")

    def contains_in_memory(self, key: str) -> bool:
        """True if a live index is resident in RAM (no cost charged)."""
        return key in self._memory

    def preload(self, key: str) -> bool:
        """Pull ``key`` into RAM and disk ahead of queries (paper §II-D).

        Returns False if the object store does not hold the key.
        """
        if key not in self._store:
            return False
        payload = self._store.get(key)
        # Deserialize before any back-fill, as _resolve does: bytes that
        # do not load must not reach a lower tier.
        value = self._deserialize(payload)
        if self._disk is not None:
            self._disk.write(key, payload)
        self._fill_memory(key, value, source="preload")
        self._metrics.incr("index_cache.preloads")
        return True

    def invalidate(self, key: str) -> None:
        """Drop ``key`` from RAM and disk (segment compacted or dropped)."""
        self._memory.evict(key)
        if self._disk is not None:
            self._disk.evict(key)

    def clear_memory(self) -> None:
        """Drop the RAM tier only (models worker restart keeping its disk)."""
        self._memory.clear()
