"""Integration tests for the BlendHouse engine facade."""

import numpy as np
import pytest

from repro.core.database import BlendHouse
from repro.errors import (
    SQLError,
    TableAlreadyExistsError,
    TableNotFoundError,
)
from repro.planner.optimizer import ExecutionStrategy

from tests.helpers import vector_sql


def query_vector(db):
    return db._docs_rows[10]["embedding"]


def ann_sql(db, k=5, where="", select="id, dist"):
    where_text = f"WHERE {where} " if where else ""
    return (
        f"SELECT {select} FROM docs {where_text}"
        f"ORDER BY L2Distance(embedding, {vector_sql(query_vector(db))}) "
        f"AS dist LIMIT {k}"
    )


class TestDDL:
    def test_create_and_describe(self, docs_db):
        info = docs_db.describe("docs")
        assert info["vector_dim"] == 16
        assert info["index"] == "HNSW"
        assert info["rows_alive"] == 600

    def test_duplicate_create_rejected(self, docs_db):
        with pytest.raises(TableAlreadyExistsError):
            docs_db.execute(
                "CREATE TABLE docs (id UInt64, v Array(Float32))"
            )

    def test_if_not_exists(self, docs_db):
        docs_db.execute(
            "CREATE TABLE IF NOT EXISTS docs (id UInt64, v Array(Float32))"
        )

    def test_drop(self, docs_db):
        docs_db.execute("DROP TABLE docs")
        with pytest.raises(TableNotFoundError):
            docs_db.table("docs")

    def test_multiple_indexes_rejected(self):
        db = BlendHouse()
        with pytest.raises(SQLError):
            db.execute(
                "CREATE TABLE t (id UInt64, v Array(Float32), "
                "INDEX a v TYPE HNSW('DIM=4'), INDEX b v TYPE FLAT('DIM=4'))"
            )


class TestQueries:
    def test_self_query_top1(self, docs_db):
        result = docs_db.execute(ann_sql(docs_db, k=1))
        assert result.rows[0][0] == 10

    def test_hybrid_filter_respected(self, docs_db):
        result = docs_db.execute(
            ann_sql(docs_db, k=5, where="label = 'news'", select="id, label, dist")
        )
        assert all(row[1] == "news" for row in result.rows)
        distances = [row[2] for row in result.rows]
        assert distances == sorted(distances)

    def test_exactness_against_numpy(self, docs_db):
        rows = docs_db._docs_rows
        query = query_vector(docs_db)
        expected = sorted(
            (float(np.linalg.norm(r["embedding"] - query)), r["id"]) for r in rows
        )[:5]
        docs_db.settings.ef_search = 256  # enough beam for exact top-5
        result = docs_db.execute(ann_sql(docs_db, k=5))
        assert [row[0] for row in result.rows] == [rid for _, rid in expected]

    def test_insert_statement(self, docs_db):
        vec = vector_sql(np.zeros(16))
        docs_db.execute(
            f"INSERT INTO docs (id, label, views, embedding) "
            f"VALUES (9999, 'new', 1, {vec})"
        )
        result = docs_db.execute(
            "SELECT id FROM docs WHERE id = 9999 LIMIT 1"
        )
        assert result.rows[0][0] == 9999

    def test_update_then_query(self, docs_db):
        docs_db.execute("UPDATE docs SET label = 'edited' WHERE id = 10")
        result = docs_db.execute(ann_sql(docs_db, k=1, select="id, label, dist"))
        assert result.rows[0][1] == "edited"

    def test_delete_then_query(self, docs_db):
        docs_db.execute("DELETE FROM docs WHERE id = 10")
        result = docs_db.execute(ann_sql(docs_db, k=1))
        assert result.rows[0][0] != 10

    def test_range_query(self, docs_db):
        result = docs_db.execute(
            f"SELECT id FROM docs "
            f"WHERE L2Distance(embedding, {vector_sql(query_vector(docs_db))}) < 1.0"
        )
        assert result.strategy is ExecutionStrategy.RANGE
        assert 10 in [row[0] for row in result.rows]

    def test_unknown_table(self, docs_db):
        with pytest.raises(TableNotFoundError):
            docs_db.execute("SELECT id FROM ghost LIMIT 1")

    def test_csv_infile_missing_file(self, docs_db):
        with pytest.raises(FileNotFoundError):
            docs_db.execute("INSERT INTO docs CSV INFILE '/nonexistent/data.csv'")


class TestSettings:
    def test_set_statement_roundtrip(self, docs_db):
        docs_db.execute("SET enable_cbo = 0")
        assert not docs_db.settings.enable_cbo
        docs_db.execute("SET enable_cbo = 1")
        assert docs_db.settings.enable_cbo

    def test_unknown_setting(self, docs_db):
        with pytest.raises(SQLError):
            docs_db.execute("SET bogus = 1")

    def test_forced_strategy(self, docs_db):
        docs_db.execute("SET forced_strategy = 'brute_force'")
        result = docs_db.execute(ann_sql(docs_db, k=3, where="views < 900"))
        assert result.strategy is ExecutionStrategy.BRUTE_FORCE
        docs_db.execute("SET forced_strategy = 'auto'")
        assert docs_db.settings.forced_strategy is None

    def test_ef_search_override(self, docs_db):
        docs_db.execute("SET ef_search = 200")
        result = docs_db.execute(ann_sql(docs_db, k=3))
        assert len(result) == 3


class TestPlanCacheIntegration:
    def test_repeat_queries_hit_cache(self, docs_db):
        docs_db.execute(ann_sql(docs_db, k=3))
        hits_before = docs_db.plan_cache.hits
        docs_db.execute(ann_sql(docs_db, k=3))
        assert docs_db.plan_cache.hits == hits_before + 1

    def test_cache_hit_is_cheaper(self, docs_db):
        sql = ann_sql(docs_db, k=3, where="views < 990")
        first = docs_db.execute(sql).simulated_seconds
        second = docs_db.execute(sql).simulated_seconds
        assert second < first

    def test_insert_invalidates_cache(self, docs_db):
        docs_db.execute(ann_sql(docs_db, k=3))
        vec = vector_sql(np.zeros(16))
        docs_db.execute(
            f"INSERT INTO docs (id, label, views, embedding) VALUES (7777, 'x', 0, {vec})"
        )
        assert len(docs_db.plan_cache) == 0

    def test_cache_disabled(self, docs_db):
        docs_db.execute("SET enable_plan_cache = 0")
        docs_db.execute(ann_sql(docs_db, k=3))
        docs_db.execute(ann_sql(docs_db, k=3))
        assert docs_db.plan_cache.hits == 0


class TestCompactionIntegration:
    def test_manual_compaction(self, docs_db):
        # Fragment the table with single-row updates.
        for i in range(4):
            docs_db.execute(f"UPDATE docs SET views = 1 WHERE id = {i}")
        before = len(docs_db.table("docs").manager)
        results = docs_db.compact("docs")
        assert results
        assert len(docs_db.table("docs").manager) < before

    def test_query_correct_after_compaction(self, docs_db):
        docs_db.execute("UPDATE docs SET label = 'moved' WHERE id = 10")
        docs_db.compact("docs")
        result = docs_db.execute(ann_sql(docs_db, k=1, select="id, label, dist"))
        assert result.rows[0][0] == 10
        assert result.rows[0][1] == "moved"


class TestFeatureMatrix:
    def test_table_one_row(self):
        features = BlendHouse.feature_matrix()
        assert features["general_purpose"]
        assert features["disaggregated_architecture"]
        assert features["iterative_search"]
        assert "HNSW" in features["index_algorithms"]
