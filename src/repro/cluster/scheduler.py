"""Segment scheduling: consistent-hash assignment with owner history.

The scheduler assigns segments to workers through the multi-probe ring
(so assignments are stable across queries and minimally disturbed by
scaling) and remembers, for every segment whose owner changed, which
worker held it before — the hook vector search serving needs (paper
§II-D: "records the previous workers they are mapped to before the
scaling").

Routing decisions are also published into a *directory* keyed by the
full ``(segment_id, manifest_id, warehouse_id)`` triple.  The directory
may be one shared dict spanning every warehouse in a fleet (each
member's scheduler writes into it); the warehouse id in the key is what
keeps two warehouses racing over the same segment+manifest from ever
sharing — and clobbering — one mutable entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from repro.cluster.hashring import MultiProbeHashRing

# (segment_id, manifest_id, warehouse_id) -> worker_id
RouteKey = Tuple[str, int, str]

# Bound on directory entries: ingest mints a manifest per commit, so an
# unpruned directory would grow with write volume, not data size.
DIRECTORY_CAPACITY = 8192


class SegmentScheduler:
    """Stable segment→worker assignment plus previous-owner tracking.

    Owner-history updates are guarded by a lock: the serving tier runs
    concurrent queries against one warehouse, and two in-flight
    :meth:`assign` calls must not interleave their read-modify-write of
    the history maps.

    Parameters
    ----------
    warehouse_id:
        Namespace for directory entries this scheduler publishes.
    directory:
        Optional routing directory *shared across warehouses* (the
        fleet passes one mapping to every member's scheduler).  Defaults
        to a private bounded map.
    """

    def __init__(
        self,
        ring: Optional[MultiProbeHashRing] = None,
        warehouse_id: str = "",
        directory: Optional[MutableMapping[RouteKey, str]] = None,
    ) -> None:
        self.ring = ring or MultiProbeHashRing()
        self.warehouse_id = warehouse_id
        self._lock = threading.Lock()
        self._current: Dict[str, str] = {}
        self._previous: Dict[str, str] = {}
        self._directory: MutableMapping[RouteKey, str] = (
            directory if directory is not None else OrderedDict()
        )

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
    def assign(
        self,
        segment_ids: Sequence[str],
        manifest_id: Optional[int] = None,
    ) -> Dict[str, str]:
        """Segment → worker for the current topology.

        Updates owner history: a segment whose owner differs from last
        time records the old owner as its previous owner.  When the query
        carries a pinned ``manifest_id``, the routing decision is
        published to the directory under the full ``(segment_id,
        manifest_id, warehouse_id)`` key — queries effectively route by
        that triple while placement remains a pure segment-id hash.
        """
        assignment: Dict[str, str] = {}
        with self._lock:
            for segment_id in segment_ids:
                worker = self.ring.assign(segment_id)
                old = self._current.get(segment_id)
                if old is not None and old != worker:
                    self._previous[segment_id] = old
                self._current[segment_id] = worker
                if manifest_id is not None:
                    self._publish_route(segment_id, manifest_id, worker)
                assignment[segment_id] = worker
        return assignment

    def _publish_route(self, segment_id: str, manifest_id: int, worker: str) -> None:
        key: RouteKey = (segment_id, manifest_id, self.warehouse_id)
        self._directory[key] = worker
        if isinstance(self._directory, OrderedDict):
            self._directory.move_to_end(key)
            while len(self._directory) > DIRECTORY_CAPACITY:
                self._directory.popitem(last=False)

    def routed_worker(
        self, segment_id: str, manifest_id: int
    ) -> Optional[str]:
        """Worker this warehouse routed ``segment_id`` to under
        ``manifest_id``, if that exact version was ever scanned here."""
        with self._lock:
            return self._directory.get(
                (segment_id, manifest_id, self.warehouse_id)
            )

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
