"""Segment scheduling: consistent-hash assignment with owner history.

The scheduler assigns segments to workers through the multi-probe ring
(so assignments are stable across queries and minimally disturbed by
scaling) and remembers, for every segment whose owner changed, which
worker held it before — the hook vector search serving needs (paper
§II-D: "records the previous workers they are mapped to before the
scaling").
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.cluster.hashring import MultiProbeHashRing


class SegmentScheduler:
    """Stable segment→worker assignment plus previous-owner tracking.

    Owner-history updates are guarded by a lock: the serving tier runs
    concurrent queries against one warehouse, and two in-flight
    :meth:`assign` calls must not interleave their read-modify-write of
    the history maps.
    """

    def __init__(self, ring: Optional[MultiProbeHashRing] = None) -> None:
        self.ring = ring or MultiProbeHashRing()
        self._lock = threading.Lock()
        self._current: Dict[str, str] = {}
        self._previous: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_worker(self, worker_id: str) -> None:
        """Join a worker to the ring."""
        self.ring.add_worker(worker_id)

    def remove_worker(self, worker_id: str) -> None:
        """Remove a worker from the ring (scale-down or failure)."""
        self.ring.remove_worker(worker_id)

    @property
    def worker_ids(self) -> List[str]:
        """Current ring members."""
        return self.ring.worker_ids

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def assign(self, segment_ids: Sequence[str]) -> Dict[str, str]:
        """Segment → worker for the current topology.

        Updates owner history: a segment whose owner differs from last
        time records the old owner as its previous owner.
        """
        assignment: Dict[str, str] = {}
        with self._lock:
            for segment_id in segment_ids:
                worker = self.ring.assign(segment_id)
                old = self._current.get(segment_id)
                if old is not None and old != worker:
                    self._previous[segment_id] = old
                self._current[segment_id] = worker
                assignment[segment_id] = worker
        return assignment

    def forget(self, prefix: str) -> None:
        """Drop the owner history of every segment whose id starts with
        ``prefix`` (a dropped table's)."""
        with self._lock:
            for owners in (self._current, self._previous):
                for segment_id in [s for s in owners if s.startswith(prefix)]:
                    del owners[segment_id]

    def group_by_worker(self, assignment: Dict[str, str]) -> Dict[str, List[str]]:
        """Invert an assignment into worker → [segments]."""
        grouped: Dict[str, List[str]] = {}
        for segment_id, worker in assignment.items():
            grouped.setdefault(worker, []).append(segment_id)
        return grouped

    def previous_owner(self, segment_id: str) -> Optional[str]:
        """The worker that owned ``segment_id`` before its last move."""
        return self._previous.get(segment_id)

    def current_owner(self, segment_id: str) -> Optional[str]:
        """The worker that owned ``segment_id`` at the last assignment."""
        return self._current.get(segment_id)

    def moved_fraction(self, segment_ids: Sequence[str]) -> float:
        """Fraction of ``segment_ids`` whose owner would change if
        re-assigned now (diagnostics for scaling experiments)."""
        if not segment_ids:
            return 0.0
        moved = 0
        for segment_id in segment_ids:
            new_owner = self.ring.assign(segment_id)
            old_owner = self._current.get(segment_id)
            if old_owner is not None and old_owner != new_owner:
                moved += 1
        return moved / len(segment_ids)
