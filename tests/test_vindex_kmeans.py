"""Tests for k-means."""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.vindex.ivf
import repro.vindex.ivfpq
import repro.vindex.pq
from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.ingest.writer import IngestConfig, SegmentWriter
from repro.sqlparser.parser import parse_statement
from repro.storage import compaction
from repro.storage.compaction import Compactor
from repro.storage.lsm import SegmentManager
from repro.storage.objectstore import ObjectStore
from repro.vindex.kmeans import (
    BUILD_ITERATIONS,
    KMeansResult,
    Seeds,
    _kmeanspp_init,
    assign_to_centroids,
    kmeans,
)
from repro.vindex.registry import IndexSpec


def blobs(k=4, per=50, dim=8, seed=0, spread=5.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=spread, size=(k, dim)).astype(np.float32)
    points = np.vstack(
        [c + rng.normal(scale=0.2, size=(per, dim)).astype(np.float32) for c in centers]
    )
    return points, centers


# ----------------------------------------------------------------------
# The reference: the straightforward k-means the fast one must match bit
# for bit — every pass over all n points, one boolean mask per cluster.
# ----------------------------------------------------------------------
def reference_kmeanspp_init(
    points: np.ndarray, k: int, rng: np.random.Generator, init: Optional[np.ndarray] = None
) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float32)
    if init is not None and init.shape[0]:
        given = init.shape[0]
        centroids[:given] = init
        # D² from each point's nearest given seed, as the assignment finds it.
        nearest = init[reference_assign_to_centroids(points, init)]
        closest_sq = np.sum((points - nearest) ** 2, axis=1)
    else:
        given = 1
        centroids[0] = points[int(rng.integers(n))]
        closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(given, k):
        total = closest_sq.sum()
        if total <= 0:
            centroids[i] = points[int(rng.integers(n))]
            continue
        probs = closest_sq / total
        choice = int(rng.choice(n, p=probs))
        centroids[i] = points[choice]
        dist_sq = np.sum((points - centroids[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centroids


def reference_assign_to_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    cross = points @ centroids.T
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    return np.argmin(c_norms[None, :] - 2.0 * cross, axis=1)


def reference_kmeans(
    points: np.ndarray,
    k: int,
    max_iterations: int = 25,
    seed: int = 0,
    tolerance: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
    init: Optional[np.ndarray] = None,
) -> KMeansResult:
    points = np.ascontiguousarray(points, dtype=np.float32)
    if rng is None:
        rng = np.random.default_rng(seed)
    if init is not None and init.shape[0] == k:
        centroids = init.copy()
    else:
        centroids = reference_kmeanspp_init(points, k, rng, init)
    assignments = reference_assign_to_centroids(points, centroids)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = points[assignments == cluster]
            if members.shape[0] > 0:
                new_centroids[cluster] = members.mean(axis=0)
            else:
                residuals = points - centroids[assignments]
                worst = int(np.argmax(np.einsum("ij,ij->i", residuals, residuals)))
                new_centroids[cluster] = points[worst]
        shift = float(np.linalg.norm(new_centroids - centroids))
        centroids = new_centroids
        assignments = reference_assign_to_centroids(points, centroids)
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


class RecordingRng:
    """A ``Generator`` stand-in that keeps the bytes of every probability
    vector k-means++ samples a seed from."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.probs: list = []

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def choice(self, n, p):
        self.probs.append(p.tobytes())
        return self._rng.choice(n, p=p)


def assert_same_fit(got: KMeansResult, want: KMeansResult) -> None:
    assert got.centroids.dtype == want.centroids.dtype
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.assignments.dtype == want.assignments.dtype
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.iterations == want.iterations
    assert got.inertia == want.inertia


def make_points(kind: str, n: int, dim: int, scale: float, seed: int) -> np.ndarray:
    """float64 points of one of the shapes the bit-identity fuzz covers."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        points = rng.standard_normal((n, dim))
    elif kind == "blobs":
        centers = rng.standard_normal((16, dim))
        points = centers[rng.integers(0, 16, n)] + 0.35 * rng.standard_normal((n, dim))
    elif kind == "offset":
        # Far from the origin relative to the spread: cancellation-prone.
        points = 50.0 + 0.01 * rng.standard_normal((n, dim))
    elif kind == "duplicates":
        pool = rng.standard_normal((max(1, n // 8), dim))
        points = pool[rng.integers(0, pool.shape[0], n)]
    elif kind == "lattice":
        # Small integers: exact distance ties everywhere.
        points = rng.integers(0, 3, (n, dim)).astype(np.float64)
    elif kind == "midpoints":
        # Anchors and midpoints of anchor pairs: once both ends of a pair
        # are seeds, the midpoint sits on the seeding bound's edge,
        # d(owner, new) = 2·d(point, owner), where only the margin decides.
        anchors = rng.standard_normal((max(2, n // 4), dim))
        ends = rng.integers(0, anchors.shape[0], (n, 2))
        points = np.vstack([anchors, (anchors[ends[:, 0]] + anchors[ends[:, 1]]) / 2])[:n]
    else:  # identical
        points = np.tile(rng.standard_normal(dim), (n, 1))
    return points * scale


@st.composite
def fits(draw):
    kind = draw(
        st.sampled_from(
            ["gauss", "blobs", "offset", "duplicates", "lattice", "midpoints", "identical"]
        )
    )
    dim = draw(st.integers(1, 64))
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 600), st.integers(601, 3000)))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    if k > 200 and n > 400:
        k = draw(st.integers(1, 200))  # k = n is covered at small n; keep the oracle quick
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 37.5, 1e3]))
    return {
        "points": make_points(kind, n, dim, scale, draw(st.integers(0, 2**16))),
        "k": k,
        "max_iterations": draw(st.sampled_from([1, 4, 25])),
        "seed": draw(st.integers(0, 2**16)),
        "float32": draw(st.booleans()),
        "pass_rng": draw(st.booleans()),
    }


class TestBitIdentityWithReference:
    """The fast k-means returns the reference's centroids, assignments,
    iterations and inertia, bit for bit (DESIGN.md §9, "k-means training")."""

    @settings(max_examples=200, deadline=None)
    @given(fits())
    def test_fuzz(self, case):
        points = case["points"].astype(np.float32) if case["float32"] else case["points"]
        kwargs = {"max_iterations": case["max_iterations"]}
        if case["pass_rng"]:
            got_rng, want_rng = RecordingRng(case["seed"]), RecordingRng(case["seed"])
            got = kmeans(points, case["k"], rng=got_rng, **kwargs)
            want = reference_kmeans(points, case["k"], rng=want_rng, **kwargs)
            assert got_rng.probs == want_rng.probs
        else:
            got = kmeans(points, case["k"], seed=case["seed"], **kwargs)
            want = reference_kmeans(points, case["k"], seed=case["seed"], **kwargs)
        assert_same_fit(got, want)

    @pytest.mark.parametrize("kind", ["blobs", "midpoints"])
    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_seeding(self, kind, dim, scale):
        points = make_points(kind, 700, dim, scale, seed=dim).astype(np.float32)
        for k in (2, 12, 90, 250):
            got_rng, want_rng = RecordingRng(k), RecordingRng(k)
            got = _kmeanspp_init(points, k, got_rng)
            want = reference_kmeanspp_init(points, k, want_rng)
            assert got.tobytes() == want.tobytes()
            # Every D² the seeding sampled from, not only the seeds it
            # happened to draw: a bound that skips a point it should
            # have lowered changes a probability even when the draw
            # does not notice.
            assert got_rng.probs == want_rng.probs

    @pytest.mark.parametrize("kind", ["blobs", "midpoints"])
    @pytest.mark.parametrize("given", [1, 5, 11, 12])
    def test_warm_start(self, kind, given):
        # Seeds near, not on, the data: k-means++ tops them up to k.
        points = make_points(kind, 700, 16, 1.0, seed=given).astype(np.float32)
        init = points[::60][:given] + np.float32(0.05)
        got_rng, want_rng = RecordingRng(given), RecordingRng(given)
        got = kmeans(points, 12, rng=got_rng, init=init, max_iterations=BUILD_ITERATIONS)
        want = reference_kmeans(
            points, 12, rng=want_rng, init=init, max_iterations=BUILD_ITERATIONS
        )
        assert got_rng.probs == want_rng.probs
        assert len(got_rng.probs) == 12 - given
        assert_same_fit(got, want)
        assert got.iterations <= BUILD_ITERATIONS
        seeded = _kmeanspp_init(points, 12, np.random.default_rng(0), init)
        assert seeded[:given].tobytes() == init.tobytes()

    def test_all_points_identical(self):
        # Every pick after the first takes the `total <= 0` branch.
        points = np.full((50, 6), 2.5, dtype=np.float32)
        assert_same_fit(kmeans(points, 7, seed=3), reference_kmeans(points, 7, seed=3))

    def test_empty_cluster_is_reseeded(self):
        # Three distinct rows and k=5: two seeds repeat a row, their
        # clusters are empty after the first assignment, and the Lloyd
        # update takes the re-seed branch.
        points = np.repeat(np.eye(3, dtype=np.float32), 10, axis=0)
        seeds = reference_kmeanspp_init(points, 5, np.random.default_rng(1))
        counts = np.bincount(reference_assign_to_centroids(points, seeds), minlength=5)
        assert counts.min() == 0
        assert_same_fit(kmeans(points, 5, seed=1), reference_kmeans(points, 5, seed=1))

    def test_level_two_merge_shape(self):
        # The shape of the ledger's largest compaction: 6,000 rows, k=158.
        points = make_points("blobs", 6000, 64, 1.0, seed=11).astype(np.float32)
        assert_same_fit(kmeans(points, 158, seed=0), reference_kmeans(points, 158, seed=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_assign_to_centroids(self, dtype):
        rng = np.random.default_rng(5)
        points = (rng.standard_normal((300, 24)) * 40).astype(np.float32)
        lattice = rng.integers(0, 2, (300, 24)).astype(np.float32)
        for data in (points, lattice):
            centroids = data[rng.choice(300, 17, replace=False)].astype(dtype)
            np.testing.assert_array_equal(
                assign_to_centroids(data, centroids),
                reference_assign_to_centroids(data, centroids),
            )


def _compact_to_level_two(clock, cost, index_sql: str, spec: IndexSpec) -> bytes:
    """Ingest four segments with some rows deleted, compact them into one
    level-2 segment and return its stored index image."""
    store = ObjectStore(clock, cost)
    ddl = parse_statement(
        f"CREATE TABLE t (id UInt64, embedding Array(Float32), INDEX ai embedding TYPE {index_sql})"
    )
    entry = Catalog().create_table(TableSchema.from_ddl(ddl.name, ddl.columns, index_spec=spec))
    manager = SegmentManager()
    writer = SegmentWriter(
        entry, manager, store, clock, cost_model=cost, config=IngestConfig(max_segment_rows=150)
    )
    compactor = Compactor(
        entry=entry, manager=manager, store=store, clock=clock, cost=cost,
    )
    points = make_points("blobs", 600, spec.dim, 1.0, seed=4).astype(np.float32)
    for start in range(0, 600, 150):
        writer.ingest_rows(
            [{"id": i, "embedding": points[i]} for i in range(start, start + 150)]
        )
    manager.mark_deleted(manager.segment_ids()[1], list(range(0, 150, 7)))
    compactor.compact_all()
    (segment,) = manager.segments()
    assert segment.meta.level == 2
    return store.get(manager.index_key(segment.segment_id))


class TestIndexImagesThroughCompaction:
    """A level-2 IVF index built through compaction is byte-identical to
    the one the reference k-means builds."""

    @pytest.mark.parametrize(
        "index_sql, spec",
        [
            ("IVFFLAT('DIM=16')", IndexSpec(index_type="IVFFLAT", dim=16)),
            ("IVFPQ('DIM=16', 'm=4')", IndexSpec(index_type="IVFPQ", dim=16, params={"m": 4})),
        ],
    )
    def test_same_image(self, monkeypatch, clock, cost, index_sql, spec):
        monkeypatch.setattr(compaction, "FANOUT", 2)
        fast = _compact_to_level_two(clock, cost, index_sql, spec)
        for module in (repro.vindex.ivf, repro.vindex.ivfpq, repro.vindex.pq):
            monkeypatch.setattr(module, "kmeans", reference_kmeans)
            monkeypatch.setattr(module, "assign_to_centroids", reference_assign_to_centroids)
        reference = _compact_to_level_two(clock, cost, index_sql, spec)
        assert fast == reference


class TestFit:
    def test_recovers_separated_clusters(self):
        points, _ = blobs(k=4)
        result = kmeans(points, 4, seed=1)
        # Each true blob should map to exactly one fitted cluster.
        for blob in range(4):
            labels = result.assignments[blob * 50 : (blob + 1) * 50]
            assert len(np.unique(labels)) == 1

    def test_result_shapes(self):
        points, _ = blobs()
        result = kmeans(points, 4)
        assert isinstance(result, KMeansResult)
        assert result.centroids.shape == (4, 8)
        assert result.assignments.shape == (200,)
        assert result.inertia >= 0

    def test_deterministic_under_seed(self):
        points, _ = blobs()
        a = kmeans(points, 4, seed=7)
        b = kmeans(points, 4, seed=7)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_k_equals_n(self):
        points = np.eye(5, dtype=np.float32)
        result = kmeans(points, 5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-6)

    def test_k_one(self):
        points, _ = blobs()
        result = kmeans(points, 1)
        np.testing.assert_allclose(
            result.centroids[0], points.mean(axis=0), rtol=1e-4, atol=1e-4
        )

    def test_duplicate_points_no_crash(self):
        points = np.ones((20, 4), dtype=np.float32)
        result = kmeans(points, 3, seed=0)
        assert result.assignments.shape == (20,)


class TestSeeds:
    def test_best_keeps_the_most_populated_in_offered_order(self):
        centroids = np.arange(12, dtype=np.float32).reshape(6, 2)
        seeds = Seeds(centroids, np.array([3, 9, 0, 3, 7, 3]))
        # Ties at 3 go to the earlier offer; the kept rows keep offer order.
        assert seeds.best(4).tolist() == centroids[[0, 1, 3, 4]].tolist()
        assert seeds.best(2).tolist() == centroids[[1, 4]].tolist()

    def test_best_never_keeps_an_empty_cell(self):
        centroids = np.arange(8, dtype=np.float32).reshape(4, 2)
        seeds = Seeds(centroids, np.array([0, 2, 0, 1]))
        assert seeds.best(4).tolist() == centroids[[1, 3]].tolist()

    def test_init_of_k_rows_replaces_seeding(self):
        points, centers = blobs(k=4)
        fit = kmeans(points, 4, init=centers, max_iterations=1)
        np.testing.assert_array_equal(fit.assignments, np.repeat(np.arange(4), 50))

    def test_init_must_fit(self):
        points, _ = blobs()
        with pytest.raises(ValueError):
            kmeans(points, 2, init=points[:3])
        with pytest.raises(ValueError):
            kmeans(points, 2, init=points[:2, :4])


class TestValidation:
    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2), dtype=np.float32), 4)

    def test_k_nonpositive(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2), dtype=np.float32), 0)

    def test_points_must_be_2d(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5, dtype=np.float32), 2)


class TestAssign:
    def test_assign_to_centroids_nearest(self):
        centroids = np.array([[0, 0], [10, 10]], dtype=np.float32)
        points = np.array([[1, 1], [9, 9], [0.2, -0.1]], dtype=np.float32)
        np.testing.assert_array_equal(
            assign_to_centroids(points, centroids), [0, 1, 0]
        )

    def test_assignments_match_inertia(self):
        points, _ = blobs()
        result = kmeans(points, 4, seed=3)
        recomputed = assign_to_centroids(points, result.centroids)
        np.testing.assert_array_equal(recomputed, result.assignments)
