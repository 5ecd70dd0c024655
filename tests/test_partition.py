"""Tests for scalar/semantic partitioning and segment pruning."""

import numpy as np

from repro.partition.pruning import (
    extract_column_intervals,
    prune_segments_scalar,
    rank_segments_semantic,
    select_semantic_candidates,
)
from repro.partition.scalar import compute_partition_keys, group_rows_by_key
from repro.partition.semantic import (
    assign_to_existing_buckets,
    cluster_vectors,
)
from repro.sqlparser.parser import parse_statement
from repro.storage.segment import ColumnStats, SegmentMeta


def predicate(text):
    return parse_statement(f"SELECT id FROM t WHERE {text}").where


def make_meta(segment_id, stats=None, centroid=None):
    return SegmentMeta(
        segment_id=segment_id,
        table="t",
        row_count=10,
        vector_column="v",
        dim=4,
        column_stats=stats or {},
        centroid=centroid,
    )


class TestScalarPartition:
    def test_partition_keys_single_column(self):
        exprs = [parse_statement("SELECT id FROM t WHERE label = 'x'").where.left]
        columns = {"label": ["a", "b", "a"]}
        keys = compute_partition_keys(exprs, columns, 3)
        assert keys == [("a",), ("b",), ("a",)]

    def test_partition_keys_expression(self):
        ddl = parse_statement(
            "CREATE TABLE t (d UInt64, v Array(Float32)) "
            "PARTITION BY (toYYYYMMDD(d), d)"
        )
        columns = {"d": np.array([1, 2, 1])}
        keys = compute_partition_keys(ddl.partition_by, columns, 3)
        assert keys == [(1, 1), (2, 2), (1, 1)]

    def test_empty_exprs_single_group(self):
        keys = compute_partition_keys([], {}, 4)
        assert keys == [()] * 4

    def test_group_rows_by_key(self):
        groups = group_rows_by_key([("a",), ("b",), ("a",)])
        assert groups == {("a",): [0, 2], ("b",): [1]}


class TestSemanticPartition:
    def test_cluster_count_capped_by_rows(self):
        vectors = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
        clustering = cluster_vectors(vectors, 100)
        assert clustering.bucket_count <= 5

    def test_separated_blobs_split(self):
        rng = np.random.default_rng(0)
        a = rng.normal(loc=0, scale=0.1, size=(50, 4))
        b = rng.normal(loc=10, scale=0.1, size=(50, 4))
        vectors = np.vstack([a, b]).astype(np.float32)
        clustering = cluster_vectors(vectors, 2, seed=1)
        labels_a = set(clustering.assignments[:50].tolist())
        labels_b = set(clustering.assignments[50:].tolist())
        assert labels_a.isdisjoint(labels_b)

    def test_assign_to_existing_buckets(self):
        centroids = np.array([[0, 0], [10, 10]], dtype=np.float32)
        vectors = np.array([[0.5, 0.1], [9, 11]], dtype=np.float32)
        np.testing.assert_array_equal(
            assign_to_existing_buckets(vectors, centroids), [0, 1]
        )

    def test_empty_input(self):
        clustering = cluster_vectors(np.empty((0, 4), dtype=np.float32), 4)
        assert clustering.bucket_count == 0


class TestIntervalExtraction:
    def test_conjunctive_ranges(self):
        intervals = extract_column_intervals(
            predicate("a >= 5 AND a < 10 AND b = 3")
        )
        assert intervals["a"].low == 5
        assert intervals["a"].high == 10
        assert intervals["b"].low == 3 and intervals["b"].high == 3

    def test_between_and_in(self):
        intervals = extract_column_intervals(
            predicate("a BETWEEN 2 AND 8 AND c IN (1, 5, 3)")
        )
        assert (intervals["a"].low, intervals["a"].high) == (2, 8)
        assert (intervals["c"].low, intervals["c"].high) == (1, 5)

    def test_or_contributes_nothing(self):
        intervals = extract_column_intervals(predicate("a = 1 OR b = 2"))
        assert intervals == {}

    def test_flipped_literal(self):
        intervals = extract_column_intervals(predicate("10 > a"))
        assert intervals["a"].high == 10

    def test_function_wrapped_column(self):
        intervals = extract_column_intervals(predicate("toYYYYMMDD(d) >= 20240101"))
        assert intervals["d"].low == 20240101

    def test_none_predicate(self):
        assert extract_column_intervals(None) == {}


class TestScalarPruning:
    def test_prunes_non_overlapping(self):
        metas = [
            make_meta("s1", {"a": ColumnStats(0, 10)}),
            make_meta("s2", {"a": ColumnStats(20, 30)}),
        ]
        kept = prune_segments_scalar(metas, predicate("a < 15"))
        assert [m.segment_id for m in kept] == ["s1"]

    def test_keeps_when_no_stats(self):
        metas = [make_meta("s1")]
        kept = prune_segments_scalar(metas, predicate("a < 15"))
        assert len(kept) == 1

    def test_string_partition_pruning(self):
        metas = [
            make_meta("cats", {"label": ColumnStats("cat", "cat")}),
            make_meta("dogs", {"label": ColumnStats("dog", "dog")}),
        ]
        kept = prune_segments_scalar(metas, predicate("label = 'cat'"))
        assert [m.segment_id for m in kept] == ["cats"]

    def test_mixed_type_constraint_never_prunes(self):
        metas = [make_meta("s1", {"a": ColumnStats(0, 10)})]
        kept = prune_segments_scalar(metas, predicate("a = 'text'"))
        assert len(kept) == 1

    def test_no_predicate_keeps_all(self):
        metas = [make_meta("s1"), make_meta("s2")]
        assert len(prune_segments_scalar(metas, None)) == 2


class TestSemanticPruning:
    def test_rank_by_centroid_distance(self):
        metas = [
            make_meta("far", centroid=np.array([10.0, 10, 10, 10], dtype=np.float32)),
            make_meta("near", centroid=np.array([0.1, 0, 0, 0], dtype=np.float32)),
        ]
        ranked = rank_segments_semantic(metas, np.zeros(4, dtype=np.float32))
        assert [m.segment_id for _, m in ranked] == ["near", "far"]

    def test_missing_centroid_last(self):
        metas = [
            make_meta("none"),
            make_meta("near", centroid=np.zeros(4, dtype=np.float32)),
        ]
        ranked = rank_segments_semantic(metas, np.zeros(4, dtype=np.float32))
        assert ranked[-1][1].segment_id == "none"

    def test_select_candidates_split(self):
        metas = [
            make_meta(f"s{i}", centroid=np.full(4, float(i), dtype=np.float32))
            for i in range(6)
        ]
        scheduled, reserve = select_semantic_candidates(
            metas, np.zeros(4, dtype=np.float32), keep=2
        )
        assert [m.segment_id for m in scheduled] == ["s0", "s1"]
        assert len(reserve) == 4

    def test_keep_clamped(self):
        metas = [make_meta("s0", centroid=np.zeros(4, dtype=np.float32))]
        scheduled, reserve = select_semantic_candidates(
            metas, np.zeros(4, dtype=np.float32), keep=10
        )
        assert len(scheduled) == 1 and reserve == []
