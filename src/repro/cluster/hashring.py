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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NoWorkersError

DEFAULT_PROBES = 21  # odd probe counts balance slightly better

_RING_BITS = 64
_RING_SIZE = 1 << _RING_BITS


def _hash64(value: str) -> int:
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@functools.lru_cache(maxsize=4096)
def _probe_positions(key: str, probes: int) -> Tuple[int, ...]:
    """Ring positions of ``key``'s probes.

    They depend on the key and the probe count only — not on who is on
    the ring — so the digests are memoised: a scheduler re-assigning the
    same segments every query pays ``probes`` bisects, no hashing.
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

    def remove_worker(self, worker_id: str) -> bool:
        """Remove ``worker_id``; returns whether it was present."""
        for position, owner in list(self._worker_at.items()):
            if owner == worker_id:
                self._positions.remove(position)
                del self._worker_at[position]
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
    def _clockwise_distance(self, probe_position: int) -> Optional[int]:
        """Ring distance from a probe to its clockwise successor worker."""
        if not self._positions:
            return None
        idx = bisect.bisect_left(self._positions, probe_position)
        if idx == len(self._positions):
            # Wrap around to the first worker.
            return self._positions[0] + _RING_SIZE - probe_position
        return self._positions[idx] - probe_position

    def assign(self, key: str) -> str:
        """Worker owning ``key``: the probe with minimal clockwise
        distance to a worker wins (Fig 3's Hash2 example).

        Raises
        ------
        NoWorkersError
            When the ring is empty.
        """
        if not self._positions:
            raise NoWorkersError("hash ring has no workers")
        best_worker: Optional[str] = None
        best_distance: Optional[int] = None
        for position in _probe_positions(key, self.probes):
            distance = self._clockwise_distance(position)
            assert distance is not None
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
