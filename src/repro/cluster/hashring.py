"""Multi-probe consistent hashing (paper Fig 3, citing Appleton &
O'Reilly).

Classic consistent hashing gets balance by placing many virtual nodes
per worker; multi-probe flips this: each worker appears *once* on the
ring, and each key is hashed ``k`` times — the probe that lands closest
(clockwise) to a worker decides the assignment.  This keeps memory and
lookup cost low while approaching the balance of many-vnode rings, and
preserves the consistent-hashing property the paper needs: adding or
removing one worker moves only ≈ 1/(n+1) of the segments.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.errors import NoWorkersError

DEFAULT_PROBES = 21  # odd probe counts balance slightly better

_RING_BITS = 64
_RING_SIZE = 1 << _RING_BITS


def _hash64(value: str) -> int:
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _clockwise_distance(positions: List[int], probe_position: int) -> int:
    """Ring distance from a probe to its clockwise successor in the
    sorted, non-empty ``positions``."""
    idx = bisect.bisect_left(positions, probe_position)
    if idx == len(positions):
        # Wrap around to the first worker.
        return positions[0] + _RING_SIZE - probe_position
    return positions[idx] - probe_position


@functools.lru_cache(maxsize=4096)
def _probe_positions(key: str, probes: int) -> Tuple[int, ...]:
    """Ring positions of ``key``'s probes.

    They depend on the key and the probe count only — not on who is on
    the ring — so the digests are memoised: re-placing a key after a
    membership change pays ``probes`` bisects, no hashing.
    """
    return tuple(_hash64(f"key::{key}::probe::{probe}") for probe in range(probes))


class MultiProbeHashRing:
    """Consistent-hash ring with multi-probe key placement."""

    def __init__(self, probes: int = DEFAULT_PROBES) -> None:
        if probes < 1:
            raise ValueError("probe count must be at least 1")
        self.probes = probes
        self._positions: List[int] = []       # sorted worker positions
        self._worker_at: Dict[int, str] = {}  # position -> worker id
        # key -> worker for the current members: a scheduler re-assigning
        # the same segments every query pays one dict probe a key.  Any
        # membership change clears it; a call with ``skip`` bypasses it.
        self._placed: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_worker(self, worker_id: str) -> None:
        """Place ``worker_id`` on the ring (idempotent)."""
        position = _hash64(f"worker::{worker_id}")
        if position in self._worker_at:
            if self._worker_at[position] == worker_id:
                return
            # Astronomically unlikely 64-bit collision; salt and retry.
            position = _hash64(f"worker::{worker_id}::salt")
        bisect.insort(self._positions, position)
        self._worker_at[position] = worker_id
        self._placed.clear()

    def remove_worker(self, worker_id: str) -> bool:
        """Remove ``worker_id``; returns whether it was present."""
        for position, owner in list(self._worker_at.items()):
            if owner == worker_id:
                self._positions.remove(position)
                del self._worker_at[position]
                self._placed.clear()
                return True
        return False

    @property
    def worker_ids(self) -> List[str]:
        """Current members, sorted by name."""
        return sorted(self._worker_at.values())

    def __len__(self) -> int:
        return len(self._worker_at)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._worker_at.values()

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def assign(self, key: str, skip: Collection[str] = ()) -> str:
        """Worker owning ``key``: the probe with minimal clockwise
        distance to a worker wins (Fig 3's Hash2 example).

        Workers in ``skip`` are passed over: ``key`` goes where it would
        on this ring with them removed, so only their keys move.

        Raises
        ------
        NoWorkersError
            When no worker outside ``skip`` is on the ring.
        """
        if skip:
            return self._place(
                key, [p for p in self._positions if self._worker_at[p] not in skip]
            )
        worker = self._placed.get(key)
        if worker is None:
            worker = self._placed[key] = self._place(key, self._positions)
        return worker

    def _place(self, key: str, positions: List[int]) -> str:
        """The worker at ``positions`` (sorted) that ``key`` lands on."""
        if not positions:
            raise NoWorkersError("hash ring has no workers")
        best_worker: Optional[str] = None
        best_distance: Optional[int] = None
        for position in _probe_positions(key, self.probes):
            distance = _clockwise_distance(positions, position)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                target = position + distance
                if target >= _RING_SIZE:
                    target -= _RING_SIZE
                best_worker = self._worker_at[target]
        assert best_worker is not None
        return best_worker

    def assignment(self, keys: Sequence[str]) -> Dict[str, str]:
        """Key → worker mapping for many keys."""
        return {key: self.assign(key) for key in keys}

    def load_distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Keys per worker (balance diagnostics and tests)."""
        counts: Dict[str, int] = {worker: 0 for worker in self.worker_ids}
        for key in keys:
            counts[self.assign(key)] += 1
        return counts
