"""Independent ground truth: numpy brute force over the benchmark's own data.

The oracle never calls the engine.  It keeps its own copy of the rows,
applies the same inserts, deletes and updates the workload sends, and
judges every returned row set: no row that was deleted, filtered out or
not yet inserted; no duplicates; distances non-decreasing and equal to
the row's true distance; recall@K against the exact answer (1.0
required where the engine chose an exact plan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ledger.data import K, Dataset

# Two rows closer than this (relative) are a tie: either may be returned.
TIE_RTOL = 1e-6
# Reported distances are float32 arithmetic; the oracle's are float64.
DIST_RTOL = 1e-4
DIST_ATOL = 1e-5


@dataclass(frozen=True)
class Truth:
    """The exact answer to one read at the moment it was issued."""

    query: np.ndarray
    allowed_bits: np.ndarray  # packed mask over row ids
    n_allowed: int
    kth: float  # distance of the K-th true neighbour (inf when fewer than K qualify)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    recall: float
    reason: str = ""


class Oracle:
    """Brute-force reference state for one table."""

    def __init__(self, dataset: Dataset, visible: Optional[int] = None) -> None:
        self.vectors = dataset.vectors
        self.attr = dataset.attr.copy()
        self.alive = np.ones(dataset.rows, dtype=bool)
        # Rows [0, visible) have been inserted so far.
        self.visible = dataset.rows if visible is None else visible

    # -- writes, mirrored from the workload --------------------------------
    def insert(self, count: int) -> None:
        self.visible += count

    def delete(self, lo: int, hi: int) -> None:
        self.alive[lo:hi] = False

    def set_attr(self, lo: int, hi: int, value: int) -> None:
        self.attr[lo:hi] = value

    @property
    def live_rows(self) -> int:
        return int(self.alive[: self.visible].sum())

    # -- reads -------------------------------------------------------------
    def _distances(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        diff = self.vectors[ids].astype(np.float64) - query.astype(np.float64)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def truth(self, query: np.ndarray, threshold: Optional[int] = None) -> Truth:
        """The exact top-K of ``query`` over rows visible and alive right now."""
        allowed = self.alive.copy()
        allowed[self.visible :] = False
        if threshold is not None:
            allowed &= self.attr < threshold
        ids = np.flatnonzero(allowed)
        kth = float("inf")
        if ids.size >= K:
            kth = float(np.partition(self._distances(query, ids), K - 1)[K - 1])
        return Truth(
            query=query,
            allowed_bits=np.packbits(allowed),
            n_allowed=int(ids.size),
            kth=kth,
        )

    def check(
        self, truth: Truth, rows: Sequence[Tuple[int, float]], exact: bool
    ) -> Verdict:
        """Judge one ``(id, dist)`` result against ``truth``.

        ``exact`` demands the true top-K (ties aside): set it when the
        engine reported a brute-force plan.
        """
        ids = np.array([int(row[0]) for row in rows], dtype=np.int64)
        dists = np.array([float(row[1]) for row in rows], dtype=np.float64)
        want = min(K, truth.n_allowed)
        if ids.size > K:
            return Verdict(False, 0.0, f"{ids.size} rows for LIMIT {K}")
        if np.unique(ids).size != ids.size:
            return Verdict(False, 0.0, "duplicate id")
        allowed = np.unpackbits(truth.allowed_bits, count=self.alive.size).astype(bool)
        if ids.size and (ids.min() < 0 or ids.max() >= allowed.size or not allowed[ids].all()):
            return Verdict(False, 0.0, "row deleted, filtered out or not yet inserted")
        if np.any(np.diff(dists) < 0):
            return Verdict(False, 0.0, "distances decrease")
        true = self._distances(truth.query, ids)
        if not np.allclose(true, dists, rtol=DIST_RTOL, atol=DIST_ATOL):
            return Verdict(False, 0.0, "reported distance is not the row's distance")
        hits = int(np.sum(true <= truth.kth * (1.0 + TIE_RTOL)))
        recall = hits / want if want else 1.0
        if exact and (ids.size != want or hits != want):
            return Verdict(False, recall, "exact plan missed a true neighbour")
        return Verdict(True, recall)


def identical(before: List[list], after: List[list]) -> int:
    """How many of the paired row sets differ (0 when byte-identical)."""
    return sum(1 for a, b in zip(before, after) if a != b) + abs(len(before) - len(after))
