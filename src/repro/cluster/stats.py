"""Per-segment access statistics a warehouse accumulates while serving.

The elastic fleet's background preloader (``repro/elastic/preloader.py``)
needs to know *which* segments are hot before it can warm a joining
warehouse's hierarchical cache: warming everything re-creates the cold
scan it is trying to mask, warming nothing masks nothing.  Warehouses
therefore record, per segment, how often index resolution hit a local
tier (memory/disk) versus missed (serving RPC or brute-force fallback),
plus explicit preloads, all timestamped on the simulated clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

# Tiers that count as a locally-served hit; everything else (serving RPC,
# brute-force fallback) is a miss the preloader wants to prevent.
HIT_TIERS = frozenset({"local", "disk"})


@dataclass
class SegmentAccess:
    """Counters for one segment."""

    hits: int = 0
    misses: int = 0
    preloads: int = 0
    last_access: float = 0.0
    tiers: Dict[str, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "preloads": self.preloads,
            "last_access": self.last_access,
            "tiers": dict(sorted(self.tiers.items())),
        }


class SegmentAccessStats:
    """Thread-safe per-segment hit/miss/preload accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, SegmentAccess] = {}

    def record(self, segment_id: str, tier: str, now: float = 0.0) -> None:
        """Record one index resolution for ``segment_id`` at ``tier``."""
        with self._lock:
            entry = self._segments.setdefault(segment_id, SegmentAccess())
            if tier in HIT_TIERS:
                entry.hits += 1
            else:
                entry.misses += 1
            entry.tiers[tier] = entry.tiers.get(tier, 0) + 1
            entry.last_access = max(entry.last_access, now)

    def record_preload(self, segment_id: str, now: float = 0.0) -> None:
        """Record an explicit cache preload of ``segment_id``."""
        with self._lock:
            entry = self._segments.setdefault(segment_id, SegmentAccess())
            entry.preloads += 1
            entry.last_access = max(entry.last_access, now)

    def forget(self, prefix: str) -> None:
        """Drop the counters of every segment whose id starts with
        ``prefix`` (a dropped table's: a table re-created under its name
        reuses its segment ids)."""
        with self._lock:
            for segment_id in [s for s in self._segments if s.startswith(prefix)]:
                del self._segments[segment_id]

    def get(self, segment_id: str) -> Optional[SegmentAccess]:
        """Counters for one segment, or None if never seen."""
        with self._lock:
            return self._segments.get(segment_id)

    def hot_segments(self, limit: Optional[int] = None) -> List[str]:
        """Segment ids ordered hottest-first (by access count, then
        recency, then id for determinism).  ``limit`` caps the list."""
        with self._lock:
            ranked = sorted(
                self._segments.items(),
                key=lambda item: (
                    -item[1].accesses,
                    -item[1].last_access,
                    item[0],
                ),
            )
        ids = [segment_id for segment_id, entry in ranked if entry.accesses > 0]
        if limit is not None:
            ids = ids[:limit]
        return ids

    def merge_from(self, others: Iterable["SegmentAccessStats"]) -> "SegmentAccessStats":
        """Fold other stats into this one (fleet-wide aggregation)."""
        for other in others:
            with other._lock:
                items = list(other._segments.items())
            with self._lock:
                for segment_id, entry in items:
                    mine = self._segments.setdefault(segment_id, SegmentAccess())
                    mine.hits += entry.hits
                    mine.misses += entry.misses
                    mine.preloads += entry.preloads
                    mine.last_access = max(mine.last_access, entry.last_access)
                    for tier, count in entry.tiers.items():
                        mine.tiers[tier] = mine.tiers.get(tier, 0) + count
        return self

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe dict of every segment's counters."""
        with self._lock:
            return {
                segment_id: entry.as_dict()
                for segment_id, entry in sorted(self._segments.items())
            }

    @property
    def total_hits(self) -> int:
        with self._lock:
            return sum(entry.hits for entry in self._segments.values())

    @property
    def total_misses(self) -> int:
        with self._lock:
            return sum(entry.misses for entry in self._segments.values())

    def hit_rate(self) -> float:
        """Fleet-visible cache hit rate across all recorded resolutions."""
        with self._lock:
            hits = sum(entry.hits for entry in self._segments.values())
            total = hits + sum(entry.misses for entry in self._segments.values())
        return hits / total if total else 0.0
