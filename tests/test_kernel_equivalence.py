"""Every search against its reference, and the DESIGN §9 boundary contract.

The query kernels (CSR neighbor gather, cached ADC tables,
allocation-free probe loops) must be *byte-identical* to
``tests.helpers.reference_search``: same ids in the same order, and
bit-equal float64 distances at the result boundary.  These tests pin
that invariant across every index type, including the delete-bitmap
path, plus adversarial tie/zero-norm inputs via hypothesis, and hold
the engine's delete-bitmap and ``AS OF`` answers to a numpy exact top-k.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import BlendHouse
from repro.errors import IndexParameterError
from repro.vindex.api import pairwise_distance
from repro.vindex.hnsw import HNSWIndex
from repro.vindex.ivfpq import IVFPQIndex
from repro.vindex.pq import ProductQuantizer
from repro.vindex.registry import (
    IndexSpec,
    create_index,
    deserialize_index,
    serialize_index,
)

from tests.helpers import reference_iterator, reference_search, vector_sql

INDEX_TYPES = ["FLAT", "IVFFLAT", "IVFPQ", "IVFPQFS", "HNSW", "HNSWSQ", "DISKANN"]
# HNSW small enough for a distance table, under the metrics that must not
# get one (a full GEMV sums in another order than a gathered one).
NON_L2_GRAPHS = ["HNSW/ip", "HNSW/cosine"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(400, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(8)
    picks = rng.choice(data.shape[0], 8, replace=False)
    return data[picks] + rng.normal(scale=0.05, size=(8, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def built(data):
    out = {}
    for name in INDEX_TYPES + NON_L2_GRAPHS:
        params = {"m": 4} if name.startswith("IVFPQ") else {}
        index_type, _, metric = name.partition("/")
        index = create_index(
            IndexSpec(index_type=index_type, dim=16, metric=metric or "l2", params=params)
        )
        index.train(data)
        index.add_with_ids(data, np.arange(data.shape[0]))
        out[name] = index
    return out


def assert_byte_identical(fast, ref):
    assert fast.ids.dtype == ref.ids.dtype
    assert fast.distances.dtype == ref.distances.dtype == np.float64
    assert fast.ids.tobytes() == ref.ids.tobytes()
    assert fast.distances.tobytes() == ref.distances.tobytes()


def both_modes(index, query, k, **params):
    """The search and its reference, on the same arguments."""
    fast = index.search_with_filter(query, k, **params)
    return fast, reference_search(index, query, k, **params)


@pytest.mark.parametrize("name", INDEX_TYPES + NON_L2_GRAPHS)
class TestFastReferenceIdentity:
    def test_topk_byte_identical(self, built, queries, name):
        for query in queries:
            fast, ref = both_modes(built[name], query, 10)
            assert_byte_identical(fast, ref)
            assert fast.visited == ref.visited

    def test_delete_bitmap_path_byte_identical(self, built, data, queries, name):
        # The executor models delete bitmaps as an allowed-rows bitset.
        bitset = np.ones(data.shape[0], dtype=bool)
        bitset[::3] = False
        for query in queries:
            fast, ref = both_modes(built[name], query, 10, bitset=bitset)
            assert_byte_identical(fast, ref)

    def test_sparse_filter_byte_identical(self, built, data, queries, name):
        bitset = np.zeros(data.shape[0], dtype=bool)
        bitset[100:140] = True
        fast, ref = both_modes(built[name], queries[0], 5, bitset=bitset)
        assert_byte_identical(fast, ref)


@pytest.mark.parametrize("name", ["HNSW", "HNSWSQ", "DISKANN"])
class TestLoadedGraphIdentity:
    """A loaded graph index holds only the CSR: the query kernels search
    it as it is, the references thaw their lists from it.  Either way
    the answer is the built index's, byte for byte."""

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_loaded_matches_built(self, built, data, queries, name, mode):
        loaded = deserialize_index(serialize_index(built[name]))
        bitset = np.ones(data.shape[0], dtype=bool)
        bitset[::3] = False
        search = reference_search if mode == "reference" else type(loaded).search_with_filter
        for query in queries:
            for params in ({}, {"bitset": bitset}):
                want = search(built[name], query, 10, **params)
                got = search(loaded, query, 10, **params)
                assert_byte_identical(got, want)
                assert got.visited == want.visited

    def test_loaded_fast_matches_loaded_reference(self, built, queries, name):
        loaded = deserialize_index(serialize_index(built[name]))
        for query in queries:
            fast, ref = both_modes(loaded, query, 10)
            assert_byte_identical(fast, ref)
            assert fast.visited == ref.visited

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_loaded_iterator_matches_built(self, built, queries, name, mode):
        loaded = deserialize_index(serialize_index(built[name]))
        iterate = reference_iterator if mode == "reference" else type(loaded).search_iterator
        want = iterate(built[name], queries[0], batch_size=16)
        got = iterate(loaded, queries[0], batch_size=16)
        for _ in range(3):
            assert_byte_identical(got.next_batch(), want.next_batch())


class TestDepthKnobs:
    def test_hnsw_ef_sweep_byte_identical(self, built, queries):
        for ef in (10, 32, 128):
            fast, ref = both_modes(built["HNSW"], queries[0], 10, ef_search=ef)
            assert_byte_identical(fast, ref)

    def test_hnswsq_ef_sweep_byte_identical(self, built, queries):
        for ef in (10, 32, 128):
            fast, ref = both_modes(built["HNSWSQ"], queries[0], 10, ef_search=ef)
            assert_byte_identical(fast, ref)

    def test_ivfpq_nprobe_sweep_byte_identical(self, built, queries):
        for nprobe in (1, 4, 16):
            fast, ref = both_modes(built["IVFPQ"], queries[0], 10, nprobe=nprobe)
            assert_byte_identical(fast, ref)

    def test_ivfpq_lut_cache_reuse_is_transparent(self, built, queries):
        # Repeating the same query must serve the ADC tables from the
        # per-index LUT cache without changing a single byte.
        index = built["IVFPQ"]
        first = index.search_with_filter(queries[0], 10, nprobe=8)
        index._lut_cache.clear()
        cold = index.search_with_filter(queries[0], 10, nprobe=8)
        warm = index.search_with_filter(queries[0], 10, nprobe=8)
        assert_byte_identical(cold, first)
        assert_byte_identical(warm, cold)


class TestAdversarialInputs:
    @given(seed=st.integers(0, 2**31 - 1), dup=st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_ties_and_zero_norms_byte_identical(self, seed, dup):
        # Duplicated rows force exact distance ties; zero rows and a
        # zero query exercise the zero-norm corner of the L2 kernels.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(20, 8)).astype(np.float32)
        data = np.concatenate(
            [np.repeat(base, dup, axis=0), np.zeros((3, 8), dtype=np.float32)]
        )
        flat = create_index(IndexSpec(index_type="FLAT", dim=8))
        flat.add_with_ids(data, np.arange(data.shape[0]))
        hnsw = HNSWIndex(dim=8, m=8, ef_construction=32, seed=0)
        hnsw.add_with_ids(data, np.arange(data.shape[0]))
        probes = [
            np.zeros(8, dtype=np.float32),  # zero-norm query
            data[0],                        # lands on a duplicate cluster
            rng.normal(size=8).astype(np.float32),
        ]
        for index in (flat, hnsw):
            for query in probes:
                fast, ref = both_modes(index, query, 10, ef_search=64)
                assert_byte_identical(fast, ref)
                assert not np.isnan(fast.distances).any()


class TestBoundaryContract:
    """DESIGN §9: float32 compute through the final sqrt, float64 only at
    the result boundary — so every index reports bit-identical distances
    for the same physical rows."""

    def test_hnsw_matches_flat_bitwise(self, built, data, queries):
        # ef_search = ntotal makes the graph search exact on this scale.
        for query in queries:
            exact = built["FLAT"].search_with_filter(query, 10)
            graph = built["HNSW"].search_with_filter(
                query, 10, ef_search=data.shape[0]
            )
            assert graph.ids.tobytes() == exact.ids.tobytes()
            assert graph.distances.tobytes() == exact.distances.tobytes()

    def test_flat_matches_pairwise_distance(self, built, data, queries):
        result = built["FLAT"].search_with_filter(queries[0], 5)
        expected = pairwise_distance(queries[0], data[result.ids], "l2")
        assert result.distances.tobytes() == np.asarray(
            expected, dtype=np.float64
        ).tobytes()

    def test_distances_are_float64_at_boundary(self, built, queries):
        for name in INDEX_TYPES:
            result = built[name].search_with_filter(queries[0], 5)
            assert result.distances.dtype == np.float64, name


class TestPQCodeGuard:
    def test_oversized_codebook_rejected_loudly(self):
        # uint8 codes silently wrap past 255 — encode must refuse instead.
        rng = np.random.default_rng(3)
        pq = ProductQuantizer(dim=8, m=2, nbits=8)
        pq.train(rng.normal(size=(300, 8)).astype(np.float32))
        pq._codebooks = np.zeros((2, 300, 4), dtype=np.float32)
        with pytest.raises(IndexParameterError, match="at most 256"):
            pq.encode(rng.normal(size=(5, 8)).astype(np.float32))

    def test_in_range_codebook_still_encodes(self):
        rng = np.random.default_rng(4)
        pq = ProductQuantizer(dim=8, m=2, nbits=8)
        pq.train(rng.normal(size=(300, 8)).astype(np.float32))
        codes = pq.encode(rng.normal(size=(5, 8)).astype(np.float32))
        assert codes.dtype == np.uint8 and codes.shape == (5, 2)


class TestIVFPQEmptyProbes:
    def test_fully_filtered_probes_return_empty(self, built, data, queries):
        bitset = np.zeros(data.shape[0], dtype=bool)  # everything deleted
        for search in (IVFPQIndex.search_with_filter, reference_search):
            result = search(built["IVFPQ"], queries[0], 10, bitset=bitset)
            assert len(result) == 0
            assert result.ids.dtype == np.int64
            assert result.visited > 0  # probed cells are still charged

    def test_empty_index_returns_empty(self):
        rng = np.random.default_rng(5)
        index = IVFPQIndex(dim=8, nlist=4, m=2)
        index.train(rng.normal(size=(200, 8)).astype(np.float32))
        result = index.search_with_filter(np.zeros(8, dtype=np.float32), 10)
        assert len(result) == 0 and result.visited == 0


def _engine(rng, n=300):
    db = BlendHouse()
    db.execute(
        "CREATE TABLE docs (id UInt64, label String, "
        "embedding Array(Float32), INDEX ann embedding TYPE HNSW('DIM=16'))"
    )
    rows = [
        {
            "id": i,
            "label": ["news", "sports", "tech"][i % 3],
            "embedding": rng.normal(size=16).astype(np.float32),
        }
        for i in range(n)
    ]
    db.insert_rows("docs", rows)
    return db, rows


def _topk_sql(query, k=10, suffix="", where=""):
    where_text = f"WHERE {where} " if where else ""
    return (
        f"SELECT id, dist FROM docs{suffix} {where_text}"
        f"ORDER BY L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )


def _exact(rows, query, visible, k=10):
    """The numpy exact top-``k`` (id, distance) of the ``visible`` rows,
    for the query as its SQL literal spells it."""
    literal = np.array(vector_sql(query)[1:-1].split(","), dtype=np.float32)
    ids = np.array([row["id"] for row in rows if visible(row["id"])])
    dists = pairwise_distance(literal, np.stack([rows[i]["embedding"] for i in ids]), "l2")
    order = np.argsort(dists, kind="stable")[:k]
    return [(int(ids[i]), float(dists[i])) for i in order]


class TestEngineModesAgree:
    """End-to-end: the full SQL path (delete bitmaps, AS OF snapshots)
    returns the exact top-k of the rows its snapshot sees; ``ef_search``
    at the row count makes the walk exhaustive."""

    def test_delete_bitmap_query_identical(self, rng):
        db, rows = _engine(rng)
        db.execute("SET ef_search = 300")
        db.execute("DELETE FROM docs WHERE id < 50")
        query = rows[60]["embedding"]
        got = [tuple(row) for row in db.execute(_topk_sql(query)).rows]
        assert got == _exact(rows, query, lambda i: i >= 50)

    def test_as_of_snapshot_query_identical(self, rng):
        db, rows = _engine(rng)
        db.execute("SET ef_search = 300")
        pinned = db.table("docs").manager.manifest_id
        db.execute("DELETE FROM docs WHERE id = 17")
        query = rows[17]["embedding"]
        as_of = [tuple(row) for row in db.execute(_topk_sql(query, suffix=f" AS OF {pinned}")).rows]
        now = [tuple(row) for row in db.execute(_topk_sql(query)).rows]
        assert as_of == _exact(rows, query, lambda i: True)
        assert as_of[0][0] == 17  # the snapshot still sees the deleted row
        assert now == _exact(rows, query, lambda i: i != 17)


class TestPlanRebind:
    """The rebind fast path must be invisible except in planning cost."""

    def test_rebind_hit_counted_and_identical_to_uncached(self, rng):
        db, rows = _engine(rng)
        first = db.execute(_topk_sql(rows[5]["embedding"])).rows
        assert db.export_metrics().counter("planner.rebinds") == 0
        again = db.execute(_topk_sql(rows[5]["embedding"])).rows
        assert db.export_metrics().counter("planner.rebinds") == 1
        assert again == first
        # Fresh literals reuse the cached template (shape keying) ...
        other = db.execute(_topk_sql(rows[6]["embedding"])).rows
        assert db.export_metrics().counter("planner.rebinds") == 2
        # ... and match a cache-disabled run exactly.
        db.execute("SET enable_plan_cache = 0")
        assert db.execute(_topk_sql(rows[6]["embedding"])).rows == other

    def test_set_ef_search_honoured_after_rebind(self, rng):
        db, rows = _engine(rng)
        query = rows[40]["embedding"]
        db.execute(_topk_sql(query))  # miss, caches the template
        db.execute("SET ef_search = 300")  # no cache fence
        result = db.execute(_topk_sql(query, k=5))
        assert db.export_metrics().counter("planner.rebinds") >= 1
        # ef_search=300 ≥ ntotal → the rebound plan must be exact.
        expected = sorted(
            (float(np.linalg.norm(r["embedding"] - query)), r["id"]) for r in rows
        )[:5]
        assert [row[0] for row in result.rows] == [rid for _, rid in expected]

    def test_cbo_plans_are_not_rebound(self, rng):
        db, rows = _engine(rng)
        sql = _topk_sql(rows[3]["embedding"], where="label = 'news'")
        db.execute(sql)
        hits_before = db.export_metrics().counter("plan_cache.hits")
        db.execute(sql)
        # The hybrid plan is CBO-costed: it hits the cache but re-runs
        # the optimizer so literal selectivity can still flip strategy.
        assert db.export_metrics().counter("plan_cache.hits") == hits_before + 1
        assert db.export_metrics().counter("planner.rebinds") == 0

    def test_forced_strategy_disables_rebind(self, rng):
        db, rows = _engine(rng)
        db.execute("SET forced_strategy = 'brute_force'")
        sql = _topk_sql(rows[8]["embedding"])
        db.execute(sql)
        db.execute(sql)
        assert db.export_metrics().counter("planner.rebinds") == 0
