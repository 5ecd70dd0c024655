"""Tests for the generic restart iterator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import BlendHouse
from repro.errors import IndexParameterError
from repro.vindex.api import pairwise_distance
from repro.vindex.flat import FlatIndex
from repro.vindex.iterator import GenericRestartIterator
from repro.vindex.ivf import IVFFlatIndex
from repro.vindex.ivfpq import IVFPQIndex

from tests.helpers import vector_sql


@pytest.fixture
def index(vectors):
    idx = FlatIndex(dim=16)
    idx.add_with_ids(vectors, np.arange(vectors.shape[0]))
    return idx


class TestStreaming:
    def test_batches_ordered_globally(self, index, vectors):
        iterator = GenericRestartIterator(index, vectors[0], batch_size=10)
        distances = []
        for _ in range(5):
            distances.extend(iterator.next_batch().distances.tolist())
        assert distances == sorted(distances)

    def test_no_duplicates(self, index, vectors):
        iterator = GenericRestartIterator(index, vectors[0], batch_size=16)
        ids = []
        for _ in range(8):
            ids.extend(iterator.next_batch().ids.tolist())
        assert len(ids) == len(set(ids))

    def test_repeated_prefix_identical(self, index, vectors):
        """The wrapper relies on repeated runs returning identical results
        for the same k (the paper notes this explicitly)."""
        a = GenericRestartIterator(index, vectors[0], batch_size=5)
        b = GenericRestartIterator(index, vectors[0], batch_size=5)
        for _ in range(4):
            np.testing.assert_array_equal(a.next_batch().ids, b.next_batch().ids)

    def test_doubling_restart_count(self, index, vectors):
        iterator = GenericRestartIterator(index, vectors[0], batch_size=10)
        for _ in range(8):  # need 80 rows: k goes 10→20→40→80
            iterator.next_batch()
        assert iterator.restarts == 4

    def test_redundant_visits_accumulate(self, index, vectors):
        """Each restart rescans from scratch — the overhead the native
        iterator avoids."""
        iterator = GenericRestartIterator(index, vectors[0], batch_size=10)
        for _ in range(4):
            iterator.next_batch()
        assert iterator.visited_total >= 2 * vectors.shape[0]


class TestExhaustion:
    def test_exhausts_after_all_rows(self, vectors):
        idx = FlatIndex(dim=16)
        idx.add_with_ids(vectors[:30], np.arange(30))
        iterator = GenericRestartIterator(idx, vectors[0], batch_size=8)
        total = []
        for _ in range(20):
            if iterator.exhausted:
                break
            batch = iterator.next_batch()
            if len(batch) == 0:
                break
            total.extend(batch.ids.tolist())
        assert sorted(total) == list(range(30))
        assert iterator.exhausted

    def test_empty_index_immediately_exhausted(self):
        idx = FlatIndex(dim=4)
        iterator = GenericRestartIterator(idx, np.zeros(4, dtype=np.float32))
        assert iterator.exhausted

    def test_bitset_limits_stream(self, index, vectors):
        bitset = np.zeros(vectors.shape[0], dtype=bool)
        bitset[:7] = True
        iterator = GenericRestartIterator(index, vectors[0], bitset=bitset, batch_size=5)
        total = []
        for _ in range(10):
            if iterator.exhausted:
                break
            batch = iterator.next_batch()
            if len(batch) == 0:
                break
            total.extend(batch.ids.tolist())
        assert sorted(total) == list(range(7))


class TestValidation:
    def test_bad_batch_size(self, index, vectors):
        with pytest.raises(IndexParameterError):
            GenericRestartIterator(index, vectors[0], batch_size=0)

    def test_for_loop_protocol(self, index, vectors):
        iterator = GenericRestartIterator(index, vectors[0], batch_size=64)
        batches = list(iterator)
        flat = [i for batch in batches for i in batch.ids.tolist()]
        assert sorted(flat) == list(range(vectors.shape[0]))


def drain(iterator):
    """Every batch of ``iterator`` until it is exhausted or comes back empty."""
    ids, distances = [], []
    for batch in iterator:
        ids.extend(batch.ids.tolist())
        distances.extend(batch.distances.tolist())
    return ids, distances


class TestRepeatedDistances:
    """Rows with equal distances tie at the boundary of every restarted
    top-k, so a deeper window need not extend the shallower one row for
    row; the iterator skips emitted rows by id."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 160),
        distinct=st.integers(1, 12),
        batch_size=st.integers(1, 24),
        kind=st.sampled_from(["FLAT", "IVFFLAT", "IVFFLAT-partial", "IVFPQ"]),
        filtered=st.booleans(),
    )
    def test_drained_stream_has_no_repeated_id(
        self, seed, n, distinct, batch_size, kind, filtered
    ):
        rng = np.random.default_rng(seed)
        dim = 8
        base = rng.normal(size=(distinct, dim)).astype(np.float32)
        vectors = base[rng.integers(0, distinct, n)]
        query = rng.normal(size=dim).astype(np.float32)
        bitset = rng.random(n) < 0.5 if filtered else None
        params = {}
        if kind == "FLAT":
            index = FlatIndex(dim)
        elif kind == "IVFPQ":
            index = IVFPQIndex(dim, nlist=4, m=4)
            params = {"nprobe": 2}
        else:
            index = IVFFlatIndex(dim, nlist=int(rng.integers(1, 9)))
        index.train(vectors)
        index.add_with_ids(vectors, np.arange(n))
        if kind == "IVFFLAT":
            params = {"nprobe": index.nlist}
        elif kind == "IVFFLAT-partial":
            params = {"nprobe": max(1, index.nlist // 2)}
        iterator = GenericRestartIterator(
            index, query, bitset=bitset, batch_size=batch_size, **params
        )
        ids, distances = drain(iterator)
        assert len(ids) == len(set(ids))
        assert iterator.exhausted
        if kind in ("FLAT", "IVFFLAT"):
            allowed = np.arange(n) if bitset is None else np.flatnonzero(bitset)
            assert sorted(ids) == allowed.tolist()
            exact = np.sort(pairwise_distance(query, vectors[allowed]).astype(np.float64))
            assert distances == exact.tolist()


# (index, rows, distinct vectors, pass percentage, data seed): each
# returns a repeated id from Plan C when emitted rows are skipped by
# position.
PLAN_C_TABLES = [
    ("FLAT", 2000, 10, 2, 0),
    ("IVFFLAT", 2000, 10, 2, 0),
    ("IVFPQ", 400, 10, 20, 0),
    ("IVFPQFS", 400, 10, 20, 0),
    ("DISKANN", 400, 40, 20, 2),
]


class TestPlanCOverRepeatedVectors:
    @pytest.mark.parametrize("index,rows,distinct,pass_pct,seed", PLAN_C_TABLES)
    def test_no_repeated_id(self, index, rows, distinct, pass_pct, seed):
        dim = 8
        db = BlendHouse()
        db.execute(
            f"CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
            f"INDEX ann embedding TYPE {index}('DIM={dim}'))"
        )
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(distinct, dim)).astype(np.float32)
        db.insert_columns(
            "t",
            {
                "id": np.arange(rows, dtype=np.uint64),
                "attr": rng.integers(0, 100, rows).astype(np.int64),
            },
            base[rng.integers(0, distinct, rows)],
        )
        db.execute("SET forced_strategy = 'post_filter'")
        for _ in range(30):
            query = rng.normal(size=dim).astype(np.float32)
            result = db.execute(
                f"SELECT id, dist FROM t WHERE attr < {pass_pct} ORDER BY "
                f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 10"
            )
            assert result.strategy.value == "post_filter"
            ids = [row[0] for row in result.rows]
            assert len(ids) == len(set(ids)), ids
