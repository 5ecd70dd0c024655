"""Lloyd's k-means with k-means++ seeding.

Used by three parts of the system: IVF index training, product-quantizer
codebook training, and the semantic (CLUSTER BY) partitioner.  Pure numpy,
deterministic under a caller-supplied seed.

Both phases skip work without changing a bit of what a cold call returns
(DESIGN.md §9, "k-means training"): seeding re-scores a point against a
new seed only when the triangle inequality leaves room for the seed to be
nearer than the point's current one, and each Lloyd update sorts the
points by cluster once and averages contiguous slices — the rows a
per-cluster boolean mask would select, in the same order.

An index build trains differently from a direct call: it runs at most
:data:`BUILD_ITERATIONS` Lloyd rounds, the count its simulated build
cost is priced at, and a compaction hands it the centroids its inputs
already hold (:class:`Seeds`).  Given seeds, :func:`kmeans` starts from
them and draws k-means++ seeds only for the centroids they leave
missing, so its output is no longer the cold call's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

_FLOAT32_EPS = float(np.finfo(np.float32).eps)

# Lloyd rounds of every k-means an index build runs, and the rounds
# ``repro.ingest.buildcost.estimate_index_build_cost`` prices.
BUILD_ITERATIONS = 10


@dataclass
class KMeansResult:
    """Fitted model: centroids plus the assignment of the training points."""

    centroids: np.ndarray
    assignments: np.ndarray
    iterations: int
    inertia: float


class Seeds(NamedTuple):
    """Trained centroids offered to a new fit, each with the number of
    points its cell still holds (DESIGN.md §9, "k-means training")."""

    centroids: np.ndarray
    population: np.ndarray

    def best(self, k: int) -> np.ndarray:
        """The ``k`` most populated centroids, ties in offered order, and
        kept in offered order; every populated one when fewer are.  An
        empty cell is no evidence of where the data is, so it is never
        kept."""
        ranked = np.argsort(-self.population, kind="stable")
        return self.centroids[np.sort(ranked[self.population[ranked] > 0][:k])]


def _squared_distances(rows: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """``np.sum((rows - centroid) ** 2, axis=1)`` with one temporary, not
    two.  ``sum`` reduces each row on its own, so a row's result has the
    same bits whichever other rows are passed with it."""
    diff = rows - centroid
    np.square(diff, out=diff)
    return diff.sum(axis=1)


def _kmeanspp_init(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    init: Optional[np.ndarray] = None,
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to D².

    Given ``init`` (at least one row, fewer than ``k``), those are the
    first seeds and only the rest are drawn; without it the first seed
    is a uniform draw.

    Each point remembers which seed its ``closest_sq`` was measured
    against (its owner).  A new seed ``c`` can only lower a point's
    ``closest_sq`` if d(owner, c) < 2·√closest_sq (Elkan, ICML 2003);
    every other point is left alone, which is what ``np.minimum`` would
    have done with it.  The bound is widened by a margin of
    (dim + 8)·2⁻²³, about twice the worst-case relative error of a
    float32 squared distance over ``dim`` coordinates, so it holds for
    the float32 distances compared here and not only for exact ones
    (DESIGN.md §9, "k-means training").  The bound needs no more of the
    owner than that: given seeds, a point's owner is the one
    :func:`assign_to_centroids` finds nearest, in one call.
    """
    n, dim = points.shape
    centroids = np.empty((k, dim), dtype=np.float32)
    if init is not None and init.shape[0]:
        given = init.shape[0]
        centroids[:given] = init
        owner = assign_to_centroids(points, init)
        closest_sq = _squared_distances(points, init[owner])
    else:
        given = 1
        centroids[0] = points[int(rng.integers(n))]
        closest_sq = _squared_distances(points, centroids[0])
        owner = np.zeros(n, dtype=np.intp)
    # A point is re-scored iff d(owner, c)² / reach_sq < closest_sq.
    reach_sq = (2.0 * (1.0 + (dim + 8) * _FLOAT32_EPS)) ** 2
    for i in range(given, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with a centroid; pick randomly.
            centroids[i] = points[int(rng.integers(n))]
            continue
        probs = closest_sq / total
        choice = int(rng.choice(n, p=probs))
        seed = centroids[i] = points[choice]
        gap = centroids[:i] - seed
        np.square(gap, out=gap)
        near = (gap.sum(axis=1) / reach_sq)[owner] < closest_sq
        if 4 * np.count_nonzero(near) > 3 * n:
            # Gathering a row costs up to a third of scoring it: when the
            # bound rules out less than a quarter, score every row.
            dist_sq = _squared_distances(points, seed)
            np.putmask(owner, dist_sq < closest_sq, i)
            np.minimum(closest_sq, dist_sq, out=closest_sq)
            continue
        rows = near.nonzero()[0]
        dist_sq = _squared_distances(points.take(rows, axis=0), seed)
        closer = dist_sq < closest_sq[rows]
        moved = rows[closer]
        closest_sq[moved] = dist_sq[closer]
        owner[moved] = i
    return centroids


def assign_to_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for each point (squared-L2)."""
    # ||p - c||² = ||p||² - 2 p·c + ||c||²; ||p||² is constant per row.
    # In place, ``-2·cross + ||c||²`` has the bits of ``||c||² - 2·cross``:
    # scaling by -2 is exact and IEEE a - b is (-b) + a.
    cross = points @ centroids.T
    cross *= -2.0
    cross += np.einsum("ij,ij->i", centroids, centroids)
    return np.argmin(cross, axis=1)


def kmeans(
    points: np.ndarray,
    k: int,
    max_iterations: int = 25,
    seed: int = 0,
    tolerance: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
    init: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Fit ``k`` centroids to ``points`` with Lloyd's algorithm.

    Parameters
    ----------
    points:
        ``(n, dim)`` float array; ``n`` must be at least ``k``.
    k:
        Number of clusters.
    max_iterations:
        Upper bound on Lloyd iterations; convergence by centroid shift
        below ``tolerance`` stops earlier.
    seed / rng:
        Determinism controls; ``rng`` wins when both are given.
    init:
        Up to ``k`` starting centroids.  ``k`` of them replace seeding;
        fewer are topped up by k-means++ drawn around them.
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if n < k:
        raise ValueError(f"cannot fit {k} clusters to {n} points")
    if rng is None:
        rng = np.random.default_rng(seed)
    if init is not None:
        init = np.asarray(init, dtype=np.float32)
        if init.ndim != 2 or init.shape[1] != points.shape[1] or init.shape[0] > k:
            raise ValueError(f"init must be at most {k} rows of dim {points.shape[1]}")

    if init is not None and init.shape[0] == k:
        centroids = init.copy()
    else:
        centroids = _kmeanspp_init(points, k, rng, init)
    assignments = assign_to_centroids(points, centroids)
    # The narrowest key lets the stable argsort below be a radix sort.
    key_type = np.min_scalar_type(k - 1)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # One stable sort lays each cluster's members out as a contiguous
        # slice in index order: the rows ``points[assignments == c]``
        # selects, so ``slice.sum(axis=0) / count`` is that mask's
        # ``mean(axis=0)`` bit for bit (``mean`` divides its float32 sum
        # by an integer count the same way).
        grouped = points.take(np.argsort(assignments.astype(key_type), kind="stable"), axis=0)
        counts = np.bincount(assignments, minlength=k)
        new_centroids = np.empty_like(centroids)
        start = 0
        for cluster, end in enumerate(np.cumsum(counts).tolist()):
            new_centroids[cluster] = grouped[start:end].sum(axis=0)
            start = end
        new_centroids /= np.maximum(counts, 1)[:, None]
        if not counts.all():
            # Re-seed empty clusters at the point farthest from its centroid.
            residuals = points - centroids[assignments]
            worst = int(np.argmax(np.einsum("ij,ij->i", residuals, residuals)))
            new_centroids[counts == 0] = points[worst]
        shift = float(np.linalg.norm(new_centroids - centroids))
        centroids = new_centroids
        assignments = assign_to_centroids(points, centroids)
        if shift < tolerance:
            break

    residuals = points - centroids[assignments]
    inertia = float(np.einsum("ij,ij->i", residuals, residuals).sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments.astype(np.int64),
        iterations=iterations,
        inertia=inertia,
    )
