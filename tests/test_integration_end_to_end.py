"""End-to-end scenarios exercising the whole stack together."""

import numpy as np

from repro.core.database import BlendHouse
from repro.cluster.engine import ClusteredBlendHouse
from repro.workloads import (
    ground_truth,
    make_laion_like,
    make_cohere_like,
    recall_at_k,
)

from tests.helpers import vector_sql


class TestPaperExampleOne:
    """The full Example 1 lifecycle from the paper."""

    def test_example_one_lifecycle(self):
        db = BlendHouse()
        db.execute(
            """
            CREATE TABLE images (
              id UInt64,
              label String,
              published_time DateTime,
              embedding Array(Float32),
              INDEX ann_idx embedding TYPE HNSW('DIM=12')
            )
            ORDER BY published_time
            PARTITION BY (toYYYYMMDD(published_time), label)
            CLUSTER BY embedding INTO 4 BUCKETS;
            """
        )
        rng = np.random.default_rng(0)
        rows = [
            {
                "id": i,
                "label": ["animal", "plant"][i % 2],
                "published_time": 20241010 + (i % 3),
                "embedding": rng.normal(size=12).astype(np.float32),
            }
            for i in range(400)
        ]
        db.insert_rows("images", rows)

        # Partitioned by (day, label) and clustered into buckets.
        manager = db.table("images").manager
        partition_keys = {seg.meta.partition_key for seg in manager.segments()}
        assert len(partition_keys) == 6  # 3 days × 2 labels
        assert any(seg.meta.bucket_id is not None for seg in manager.segments())

        query = rows[8]["embedding"]
        result = db.execute(
            f"SELECT id, dist, published_time FROM images "
            f"WHERE label = 'animal' AND published_time >= 20241010 "
            f"ORDER BY L2Distance(embedding, {vector_sql(query)}) AS dist "
            f"LIMIT 10"
        )
        assert result.columns == ["id", "dist", "published_time"]
        assert result.rows[0][0] == 8
        assert all(rows[r[0]]["label"] == "animal" for r in result.rows)


class TestRecallEndToEnd:
    def test_engine_recall_matches_index_quality(self):
        ds = make_cohere_like(n=1500, dim=24, n_queries=20)
        db = BlendHouse()
        db.execute(
            "CREATE TABLE bench (id UInt64, attr Int64, embedding Array(Float32), "
            "INDEX ann embedding TYPE HNSW('DIM=24'))"
        )
        db.table("bench").writer.config.max_segment_rows = 800
        db.insert_columns(
            "bench",
            {"id": ds.scalars["id"], "attr": ds.scalars["attr"]},
            ds.vectors,
        )
        truth = ground_truth(ds.vectors, ds.queries, 10)
        db.settings.ef_search = 128
        results = []
        for qi in range(20):
            out = db.execute(
                f"SELECT id FROM bench ORDER BY "
                f"L2Distance(embedding, {vector_sql(ds.queries[qi])}) LIMIT 10"
            )
            results.append([row[0] for row in out.rows])
        assert recall_at_k(results, truth, 10) > 0.9


class TestSemanticPruningEndToEnd:
    def test_pruned_query_still_accurate(self):
        ds = make_cohere_like(n=1200, dim=16, n_queries=10)
        db = BlendHouse()
        db.execute(
            "CREATE TABLE clustered (id UInt64, attr Int64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=16')) "
            "CLUSTER BY embedding INTO 8 BUCKETS"
        )
        db.insert_columns(
            "clustered",
            {"id": ds.scalars["id"], "attr": ds.scalars["attr"]},
            ds.vectors,
        )
        assert len(db.table("clustered").manager) >= 4
        db.settings.semantic_prune_keep = 3
        truth = ground_truth(ds.vectors, ds.queries, 5)
        results = []
        for qi in range(10):
            out = db.execute(
                f"SELECT id FROM clustered ORDER BY "
                f"L2Distance(embedding, {vector_sql(ds.queries[qi])}) LIMIT 5"
            )
            results.append([row[0] for row in out.rows])
        # Clustered data + centroid pruning keeps recall high while
        # scanning a fraction of the segments.
        assert recall_at_k(results, truth, 5) > 0.8
        assert db.metrics.count("pruning.semantic_kept") <= 3 * 10

    def test_adaptive_widening_fires_when_needed(self):
        ds = make_cohere_like(n=600, dim=16, n_queries=1)
        db = BlendHouse()
        db.execute(
            "CREATE TABLE c2 (id UInt64, attr Int64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=16')) "
            "CLUSTER BY embedding INTO 6 BUCKETS"
        )
        db.insert_columns(
            "c2", {"id": ds.scalars["id"], "attr": ds.scalars["attr"]}, ds.vectors
        )
        db.settings.semantic_prune_keep = 1
        # Ask for more rows than a single bucket can hold → widening.
        smallest = min(seg.row_count for seg in db.table("c2").manager.segments())
        k = smallest + 50
        out = db.execute(
            f"SELECT id FROM c2 ORDER BY "
            f"L2Distance(embedding, {vector_sql(ds.queries[0])}) LIMIT {k}"
        )
        assert len(out) == k
        assert db.metrics.count("pruning.widenings") >= 1


class TestLaionMultiPredicate:
    def test_regex_and_range_filters(self):
        ds = make_laion_like(n=800, dim=12, n_queries=5)
        db = BlendHouse()
        db.execute(
            "CREATE TABLE laion (id UInt64, caption String, similarity Float64, "
            "embedding Array(Float32), INDEX ann embedding TYPE FLAT('DIM=12'))"
        )
        db.insert_columns(
            "laion",
            {
                "id": ds.scalars["id"],
                "caption": ds.scalars["caption"],
                "similarity": ds.scalars["similarity"],
            },
            ds.vectors,
        )
        out = db.execute(
            f"SELECT id, caption, similarity FROM laion "
            f"WHERE caption REGEXP '^[0-9]' AND similarity BETWEEN 0.3 AND 1.0 "
            f"ORDER BY L2Distance(embedding, {vector_sql(ds.queries[0])}) LIMIT 10"
        )
        for _, caption, similarity in out.rows:
            assert caption[0].isdigit()
            assert 0.3 <= similarity <= 1.0


class TestClusterParityWithLocal:
    def test_cluster_and_local_agree(self):
        ds = make_cohere_like(n=900, dim=16, n_queries=5)
        ddl = (
            "CREATE TABLE par (id UInt64, attr Int64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=16'))"
        )
        local = BlendHouse()
        local.execute(ddl)
        local.table("par").writer.config.max_segment_rows = 300
        local.insert_columns(
            "par", {"id": ds.scalars["id"], "attr": ds.scalars["attr"]}, ds.vectors
        )

        clustered = ClusteredBlendHouse(read_workers=3)
        clustered.execute(ddl)
        clustered.table("par").writer.config.max_segment_rows = 300
        clustered.insert_columns(
            "par", {"id": ds.scalars["id"], "attr": ds.scalars["attr"]}, ds.vectors
        )
        clustered.preload("par")

        for qi in range(5):
            sql = (
                f"SELECT id FROM par WHERE attr < 9000 ORDER BY "
                f"L2Distance(embedding, {vector_sql(ds.queries[qi])}) LIMIT 10"
            )
            local_ids = [row[0] for row in local.execute(sql).rows]
            cluster_ids = [row[0] for row in clustered.execute(sql).rows]
            assert local_ids == cluster_ids


class TestMixedDml:
    def test_interleaved_writes_updates_queries(self, docs_db):
        db = docs_db
        vec = vector_sql(np.full(16, 0.5))
        db.execute(
            f"INSERT INTO docs (id, label, views, embedding) "
            f"VALUES (9000, 'fresh', 10, {vec})"
        )
        db.execute("UPDATE docs SET views = 999 WHERE id = 9000")
        db.execute("DELETE FROM docs WHERE id = 9000")
        db.execute(
            f"INSERT INTO docs (id, label, views, embedding) "
            f"VALUES (9001, 'fresh', 1, {vec})"
        )
        result = db.execute(
            f"SELECT id FROM docs WHERE label = 'fresh' "
            f"ORDER BY L2Distance(embedding, {vec}) LIMIT 5"
        )
        assert [row[0] for row in result.rows] == [9001]
