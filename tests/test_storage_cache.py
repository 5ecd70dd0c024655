"""Tests for the cache tiers."""

import pytest

from repro.errors import IndexCorruptError, ObjectNotFoundError
from repro.storage.cache import HierarchicalIndexCache, LRUCache, object_size
from repro.storage.localdisk import LocalDisk
from repro.vindex.registry import deserialize_index


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(100)
        cache.put("a", b"xxx")
        assert cache.get("a") == b"xxx"

    def test_miss_returns_none_and_counts(self):
        cache = LRUCache(100)
        assert cache.get("ghost") is None
        assert cache.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(10)
        cache.put("a", b"xxxx")
        cache.put("b", b"xxxx")
        cache.get("a")
        cache.put("c", b"xxxx")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_oversize_refused(self):
        cache = LRUCache(4)
        assert not cache.put("big", b"xxxxx")

    def test_oversize_put_evicts_stale_entry(self):
        # Regression: replacing an entry with an oversize value must not
        # leave the stale predecessor serving phantom hits.
        cache = LRUCache(10)
        cache.put("idx", b"old")
        assert not cache.put("idx", b"x" * 20)
        assert "idx" not in cache
        assert cache.get("idx") is None
        assert cache.used_bytes == 0
        assert cache.evictions == 1

    def test_oversize_put_leaves_other_entries_alone(self):
        cache = LRUCache(10)
        cache.put("keep", b"abcd")
        assert not cache.put("big", b"x" * 20)
        assert "keep" in cache
        assert cache.used_bytes == 4
        assert cache.evictions == 0

    def test_overwrite_updates_usage(self):
        cache = LRUCache(100)
        cache.put("a", b"x" * 50)
        cache.put("a", b"x" * 10)
        assert cache.used_bytes == 10

    def test_explicit_evict(self):
        cache = LRUCache(100)
        cache.put("a", b"x")
        assert cache.evict("a")
        assert not cache.evict("a")

    def test_custom_size_fn(self):
        cache = LRUCache(10, size_of=lambda value: 5)
        cache.put("a", object())
        cache.put("b", object())
        cache.put("c", object())
        assert len(cache) == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class _FakeIndex:
    """Deserialized stand-in exposing memory_bytes like a real index."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def memory_bytes(self) -> int:
        return len(self.payload)


@pytest.fixture
def hierarchy(clock, cost, metrics, store):
    memory = LRUCache(1 << 20, size_of=object_size)
    disk = LocalDisk(clock, 1 << 20, cost, metrics)
    cache = HierarchicalIndexCache(
        clock, memory, disk, store, deserialize=_FakeIndex,
        cost_model=cost, metrics=metrics,
    )
    return cache, disk, store


class TestHierarchicalCache:
    def test_remote_then_disk_then_memory(self, hierarchy, metrics):
        cache, disk, store = hierarchy
        store.put("idx", b"payload")
        _, tier1 = cache.get("idx")
        assert tier1 == "remote"
        cache.clear_memory()
        _, tier2 = cache.get("idx")
        assert tier2 == "disk"
        _, tier3 = cache.get("idx")
        assert tier3 == "memory"

    def test_missing_everywhere_raises(self, hierarchy):
        cache, _, _ = hierarchy
        with pytest.raises(ObjectNotFoundError):
            cache.get("ghost")

    def test_preload_populates_memory(self, hierarchy):
        cache, _, store = hierarchy
        store.put("idx", b"payload")
        assert cache.preload("idx")
        assert cache.contains_in_memory("idx")

    def test_preload_missing_returns_false(self, hierarchy):
        cache, _, _ = hierarchy
        assert not cache.preload("ghost")

    def test_invalidate_drops_all_tiers(self, hierarchy):
        cache, disk, store = hierarchy
        store.put("idx", b"payload")
        cache.get("idx")
        cache.invalidate("idx")
        assert not cache.contains_in_memory("idx")
        assert "idx" not in disk

    def test_tier_costs_ordered(self, hierarchy, clock, cost):
        cache, _, store = hierarchy
        store.put("idx", b"p" * 10_000)
        t0 = clock.now
        cache.get("idx")
        remote_cost = clock.now - t0
        cache.clear_memory()
        t1 = clock.now
        cache.get("idx")
        disk_cost = clock.now - t1
        t2 = clock.now
        cache.get("idx")
        memory_cost = clock.now - t2
        assert memory_cost < disk_cost < remote_cost

    def test_backfill_order_remote_fills_disk_then_memory(self, hierarchy):
        # A remote miss must back-fill *both* lower tiers so the next
        # lookups resolve progressively closer: remote → memory, and
        # after a RAM wipe, disk → memory again.
        cache, disk, store = hierarchy
        store.put("idx", b"payload")
        _, tier = cache.get("idx")
        assert tier == "remote"
        assert "idx" in disk
        assert cache.contains_in_memory("idx")
        cache.clear_memory()
        _, tier = cache.get("idx")
        assert tier == "disk"
        assert cache.contains_in_memory("idx")

    def test_tier_latencies_strictly_increase_in_exported_metrics(
        self, hierarchy, metrics
    ):
        # Same ordering as test_tier_costs_ordered, but observed through
        # the exported per-tier latency metrics rather than the clock.
        cache, _, store = hierarchy
        store.put("idx", b"p" * 10_000)
        cache.get("idx")        # remote
        cache.clear_memory()
        cache.get("idx")        # disk
        cache.get("idx")        # memory
        latencies = metrics.as_dict()["latencies"]
        memory = latencies["index_cache.tier.memory"]["mean"]
        disk = latencies["index_cache.tier.disk"]["mean"]
        remote = latencies["index_cache.tier.remote"]["mean"]
        assert memory < disk < remote


class TestCorruptIndexBytes:
    """A payload that does not load is never back-filled: the error is
    typed, and no tier below the store is left holding the bad bytes."""

    @pytest.fixture
    def tiers(self, clock, cost, metrics, store):
        memory = LRUCache(1 << 20, size_of=object_size)
        disk = LocalDisk(clock, 1 << 20, cost, metrics)
        cache = HierarchicalIndexCache(
            clock, memory, disk, store, deserialize=deserialize_index,
            cost_model=cost, metrics=metrics,
        )
        return cache, disk

    @pytest.mark.parametrize("entry", ["get", "preload"])
    def test_corrupt_store_object_reaches_no_lower_tier(self, tiers, store, entry):
        cache, disk = tiers
        store.put("idx", b"BHIX" + b"\x00" * 40)
        with pytest.raises(IndexCorruptError):
            getattr(cache, entry)("idx")
        assert "idx" not in disk
        assert not cache.contains_in_memory("idx")

    def test_corrupt_disk_block_is_not_promoted_to_memory(self, tiers):
        cache, disk = tiers
        disk.write("idx", b"not an index image")
        with pytest.raises(IndexCorruptError):
            cache.get("idx")
        assert not cache.contains_in_memory("idx")
