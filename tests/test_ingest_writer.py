"""Tests for the write path: partitioning, segments, pipelined builds."""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.errors import SchemaError
from repro.ingest.writer import IngestConfig, SegmentWriter, _pipeline_total
from repro.sqlparser.parser import parse_statement
from repro.storage.lsm import SegmentManager
from repro.storage.objectstore import ObjectStore
from repro.vindex.registry import IndexSpec


def make_writer(clock, cost, ddl, index_type="FLAT", dim=8, **cfg):
    store = ObjectStore(clock, cost)
    catalog = Catalog()
    statement = parse_statement(ddl)
    spec = IndexSpec(index_type=index_type, dim=dim)
    schema = TableSchema.from_ddl(
        statement.name, statement.columns, index_spec=spec,
        partition_by=statement.partition_by,
        cluster_by=statement.cluster_by,
        cluster_buckets=statement.cluster_buckets,
    )
    entry = catalog.create_table(schema)
    manager = SegmentManager()
    writer = SegmentWriter(
        entry, manager, store, clock, cost_model=cost,
        config=IngestConfig(**cfg),
    )
    return writer, manager, store, entry


PLAIN_DDL = "CREATE TABLE t (id UInt64, label String, embedding Array(Float32))"
PARTITIONED_DDL = (
    "CREATE TABLE t (id UInt64, label String, embedding Array(Float32)) "
    "PARTITION BY label"
)
CLUSTERED_DDL = (
    "CREATE TABLE t (id UInt64, label String, embedding Array(Float32)) "
    "CLUSTER BY embedding INTO 3 BUCKETS"
)


def rows(n, dim=8, seed=0, labels=("a", "b")):
    rng = np.random.default_rng(seed)
    return [
        {"id": i, "label": labels[i % len(labels)],
         "embedding": rng.normal(size=dim).astype(np.float32)}
        for i in range(n)
    ]


class TestBasicIngest:
    def test_rows_land_in_segments(self, clock, cost):
        writer, manager, _, _ = make_writer(clock, cost, PLAIN_DDL, max_segment_rows=50)
        report = writer.ingest_rows(rows(120))
        assert report.rows == 120
        assert len(report.segment_ids) == 3
        assert manager.total_rows() == 120

    def test_empty_batch(self, clock, cost):
        writer, manager, _, _ = make_writer(clock, cost, PLAIN_DDL)
        report = writer.ingest_rows([])
        assert report.rows == 0
        assert len(manager) == 0

    def test_segments_persisted(self, clock, cost):
        writer, manager, store, _ = make_writer(clock, cost, PLAIN_DDL)
        writer.ingest_rows(rows(30))
        sid = manager.segment_ids()[0]
        assert f"segments/{sid}/meta" in store

    def test_index_built_and_persisted(self, clock, cost):
        writer, manager, store, _ = make_writer(clock, cost, PLAIN_DDL)
        writer.ingest_rows(rows(30))
        sid = manager.segment_ids()[0]
        key = manager.index_key(sid)
        assert key in store
        assert key in writer.built_indexes

    def test_per_segment_index_uses_row_offsets(self, clock, cost):
        writer, manager, _, _ = make_writer(clock, cost, PLAIN_DDL, max_segment_rows=20)
        writer.ingest_rows(rows(40))
        for sid in manager.segment_ids():
            index = writer.built_indexes[manager.index_key(sid)]
            segment = manager.segment(sid)
            result = index.search_with_filter(segment.vectors()[3], 1)
            assert result.ids[0] == 3  # offset within the segment

    def test_dim_inferred_from_first_insert(self, clock, cost):
        writer, _, _, entry = make_writer(clock, cost, PLAIN_DDL, dim=1)
        entry.schema.vector_dim = 0
        writer.ingest_rows(rows(10))
        assert entry.schema.vector_dim == 8

    def test_dim_mismatch_rejected(self, clock, cost):
        writer, _, _, _ = make_writer(clock, cost, PLAIN_DDL)
        bad = rows(5, dim=4)
        with pytest.raises(SchemaError):
            writer.ingest_rows(bad)

    def test_statistics_refreshed(self, clock, cost):
        writer, _, _, entry = make_writer(clock, cost, PLAIN_DDL)
        writer.ingest_rows(rows(50))
        assert entry.statistics.row_count == 50
        assert "id" in entry.statistics.histograms
        assert "label" in entry.statistics.string_stats


class TestPartitioning:
    def test_scalar_partitions_split_segments(self, clock, cost):
        writer, manager, _, _ = make_writer(clock, cost, PARTITIONED_DDL)
        writer.ingest_rows(rows(40))
        keys = {seg.meta.partition_key for seg in manager.segments()}
        assert keys == {("a",), ("b",)}

    def test_semantic_buckets_assigned(self, clock, cost):
        writer, manager, _, _ = make_writer(clock, cost, CLUSTERED_DDL)
        writer.ingest_rows(rows(60))
        buckets = {seg.meta.bucket_id for seg in manager.segments()}
        assert buckets <= {0, 1, 2}
        assert len(buckets) >= 2
        for seg in manager.segments():
            assert seg.meta.centroid is not None

    def test_bucket_centroids_stable_across_batches(self, clock, cost):
        writer, _, _, _ = make_writer(clock, cost, CLUSTERED_DDL)
        writer.ingest_rows(rows(60, seed=0))
        first = writer._bucket_centroids.copy()
        writer.ingest_rows(rows(60, seed=1))
        np.testing.assert_array_equal(writer._bucket_centroids, first)


class TestPipelining:
    def test_pipeline_total_recurrence(self):
        # write: 2,2,2 ; build: 3,3,3 → 2 + 3*3 = 11 (build-bound)
        assert _pipeline_total([2, 2, 2], [3, 3, 3]) == pytest.approx(11)
        # write-bound: write 5,5 build 1,1 → 5+5+1 = 11
        assert _pipeline_total([5, 5], [1, 1]) == pytest.approx(11)
        assert _pipeline_total([], []) == 0.0

    def test_pipelined_faster_than_blocking(self, clock, cost):
        writer, _, _, _ = make_writer(
            clock, cost, PLAIN_DDL, index_type="HNSW", max_segment_rows=40,
        )
        report = writer.ingest_rows(rows(160))
        # Blocking (the baselines' build) pays every write, then every build.
        assert report.simulated_seconds < report.write_seconds + report.build_seconds

    def test_report_decomposition(self, clock, cost):
        writer, _, _, _ = make_writer(clock, cost, PLAIN_DDL, max_segment_rows=40)
        report = writer.ingest_rows(rows(120))
        assert report.write_seconds > 0
        assert report.simulated_seconds <= report.write_seconds + report.build_seconds + 1e-9

    def test_clock_advanced_by_total(self, clock, cost):
        writer, _, _, _ = make_writer(clock, cost, PLAIN_DDL)
        before = clock.now
        report = writer.ingest_rows(rows(30))
        assert clock.now - before == pytest.approx(report.simulated_seconds)


class TestAutoIndex:
    def test_auto_nlist_applied(self, clock, cost):
        writer, _, _, _ = make_writer(
            clock, cost, PLAIN_DDL, index_type="IVFFLAT",
        )
        report = writer.ingest_rows(rows(500))
        spec = report.index_specs[0]
        assert "nlist" in spec.params
