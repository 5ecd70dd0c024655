"""One exact scan: a segment without an index is searched as FLAT.

A table with no vector index, a segment whose index did not resolve and
any segment under Plan A are searched through a FLAT view of the
segment's own vectors, so they answer exactly as a FLAT index over the
same rows does; only the counter they are charged under differs.
"""

import numpy as np
import pytest

from repro.core.database import BlendHouse
from tests.helpers import vector_sql

FUNCTIONS = {"l2": "L2Distance", "ip": "IPDistance", "cosine": "CosineDistance"}


def table(index, metric, vectors, attrs):
    """One engine holding ``vectors`` in one segment, under ``index``
    (None: no vector index) built for ``metric``."""
    db = BlendHouse()
    dim = vectors.shape[1]
    declared = ""
    if index is not None:
        declared = f", INDEX ann embedding TYPE {index}('DIM={dim}', 'METRIC={metric}')"
    db.execute(f"CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32){declared})")
    ids = np.arange(len(vectors), dtype=np.uint64)
    db.insert_columns("t", {"id": ids, "attr": attrs}, vectors)
    return db


class TestExactScanIsFlat:
    """500 rows in one segment, 50 of them deleted, a 10 % filter."""

    @pytest.fixture(params=sorted(FUNCTIONS))
    def pair(self, request):
        metric = request.param
        rng = np.random.default_rng(38)
        vectors = rng.normal(size=(500, 16)).astype(np.float32)
        attrs = rng.integers(0, 10, size=500).astype(np.int64)
        dbs = {index: table(index, metric, vectors, attrs) for index in (None, "FLAT")}
        for db in dbs.values():
            assert len(db.table("t").manager.segments()) == 1
            db.execute("DELETE FROM t WHERE id % 10 = 3")
        return metric, vectors, dbs

    def answers(self, db, sql, strategy):
        db.execute(f"SET forced_strategy = {strategy}")
        before = {name: db.metrics.count(name)
                  for name in ("annscan.visited", "annscan.brute_force_rows")}
        rows = db.execute(sql).rows
        after = {name: db.metrics.count(name) - count for name, count in before.items()}
        return [(int(row[0]), float(row[1]).hex()) for row in rows], after

    def check(self, dbs, sql, strategy):
        exact, exact_counts = self.answers(dbs[None], sql, strategy)
        flat, flat_counts = self.answers(dbs["FLAT"], sql, strategy)
        assert exact and exact == flat
        assert exact_counts["annscan.visited"] == 0
        assert exact_counts["annscan.brute_force_rows"] > 0
        assert flat_counts["annscan.visited"] > 0
        assert flat_counts["annscan.brute_force_rows"] == 0
        return exact

    def test_top_k(self, pair):
        metric, vectors, dbs = pair
        sql = (
            f"SELECT id, dist FROM t WHERE attr = 0 ORDER BY "
            f"{FUNCTIONS[metric]}(embedding, {vector_sql(vectors[7])}) AS dist LIMIT 10"
        )
        assert len(self.check(dbs, sql, "pre_filter")) == 10

    def test_range(self, pair):
        metric, vectors, dbs = pair
        distance = f"{FUNCTIONS[metric]}(embedding, {vector_sql(vectors[7])})"
        radius = {"l2": 5.0, "ip": -2.0, "cosine": 0.8}[metric]
        sql = f"SELECT id, {distance} AS dist FROM t WHERE {distance} < {radius}"
        rows = self.check(dbs, sql, "auto")
        assert all(row_id % 10 != 3 for row_id, _ in rows)

    def test_drained_iterator(self, pair):
        """Plan C under a 10 % filter wants more rows than pass it, so the
        segment's iterator is drained, 100 rows a batch, and every
        passing row comes back."""
        metric, vectors, dbs = pair
        sql = (
            f"SELECT id, dist FROM t WHERE attr = 0 ORDER BY "
            f"{FUNCTIONS[metric]}(embedding, {vector_sql(vectors[7])}) AS dist LIMIT 100"
        )
        rows = self.check(dbs, sql, "post_filter")
        alive = np.arange(500) % 10 != 3
        passing = alive & (dbs[None].table("t").manager.segments()[0].scalar_column("attr") == 0)
        assert sorted(row_id for row_id, _ in rows) == np.flatnonzero(passing).tolist()


class TestNegativeRadius:
    """An ip distance is a negated inner product, so a negative radius is
    an ordinary predicate on every kind of table."""

    @pytest.fixture(scope="class")
    def data(self):
        vectors = np.random.default_rng(7).normal(size=(300, 8)).astype(np.float32)
        return vectors, np.zeros(300, dtype=np.int64)

    @pytest.mark.parametrize("index", [None, "FLAT", "HNSW", "IVFFLAT"])
    def test_ip_radius_below_zero(self, data, index):
        vectors, attrs = data
        truth = set(np.flatnonzero(-(vectors @ np.ones(8, np.float32)) < -2).tolist())
        db = table(index, "ip", vectors, attrs)
        rows = db.execute(
            "SELECT id FROM t WHERE IPDistance(embedding, [1,1,1,1,1,1,1,1]) < -2"
        ).rows
        ids = {int(row[0]) for row in rows}
        if index in (None, "FLAT"):
            assert ids == truth
        else:
            assert ids <= truth

    @pytest.mark.parametrize("index", [None, "FLAT", "HNSW", "IVFFLAT"])
    def test_l2_radius_below_zero_keeps_no_row(self, data, index):
        vectors, attrs = data
        db = table(index, "l2", vectors, attrs)
        rows = db.execute(
            "SELECT id FROM t WHERE L2Distance(embedding, [1,1,1,1,1,1,1,1]) < -1"
        ).rows
        assert rows == []
