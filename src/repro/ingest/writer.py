"""The write path: partition → segment → per-segment vector index.

One :class:`SegmentWriter` per table turns an ingest batch into committed
immutable segments:

1. scalar partition keys are computed from PARTITION BY expressions;
2. within each scalar partition, CLUSTER BY buckets assign rows to
   semantic buckets (reusing previously learned centroids so bucket
   semantics are stable across batches);
3. each (partition, bucket) group is cut into segments of at most
   ``max_segment_rows``;
4. a vector index is built for every segment (auto-index adjusts IVF
   build parameters to the segment size), then segment and index are
   persisted to the object store.

**Pipelined build** (paper §V-B1): BlendHouse overlaps writing segment
``i+1`` with building the index of segment ``i``.  The simulated ingest
time therefore follows the two-stage pipeline recurrence
``finish_build(i) = max(finish_write(i), finish_build(i-1)) + build(i)``
instead of the blocking ``sum(write) + sum(build)`` a non-pipelined
system (the baselines of Table IV) pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.catalog.catalog import TableEntry
from repro.errors import SchemaError
from repro.ingest.buildcost import estimate_index_build_cost
from repro.partition.scalar import compute_partition_keys, group_rows_by_key
from repro.partition.semantic import assign_to_existing_buckets, cluster_vectors
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.lsm import SegmentManager, index_storage_key
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment
from repro.vindex.api import VectorIndex
from repro.vindex.autoindex import auto_build_spec
from repro.vindex.registry import IndexSpec, create_index, serialize_index


@dataclass
class IngestConfig:
    """Knobs for the write path."""

    max_segment_rows: int = 2048


@dataclass
class IngestReport:
    """What one ingest batch produced."""

    rows: int = 0
    segment_ids: List[str] = field(default_factory=list)
    simulated_seconds: float = 0.0
    write_seconds: float = 0.0
    build_seconds: float = 0.0
    index_specs: List[IndexSpec] = field(default_factory=list)


class SegmentWriter:
    """Write path for one table."""

    def __init__(
        self,
        entry: TableEntry,
        manager: SegmentManager,
        store: ObjectStore,
        clock: SimulatedClock,
        cost_model: Optional[DeviceCostModel] = None,
        metrics: Optional[MetricRegistry] = None,
        config: Optional[IngestConfig] = None,
    ) -> None:
        self._entry = entry
        self._manager = manager
        self._store = store
        self._clock = clock
        self._cost = cost_model or DeviceCostModel()
        self._metrics = metrics or MetricRegistry()
        self.config = config or IngestConfig()
        self._bucket_centroids: Optional[np.ndarray] = None
        # Live index objects for segments built by this writer, so the
        # local warehouse can serve without an object-store round trip.
        self.built_indexes: Dict[str, VectorIndex] = {}
        # Fired after each statistics refresh; the durability layer logs
        # a WAL "stats" record here (histograms and learned centroids
        # are not reconstructible from manifest replay alone).
        self.on_stats_refresh: Optional[Any] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def ingest_rows(self, rows: List[Dict[str, Any]]) -> IngestReport:
        """Validate and ingest a list of row dicts."""
        schema = self._entry.schema
        if not rows:
            return IngestReport()
        validated = [schema.validate_row(row) for row in rows]
        scalars, vectors = schema.empty_columns()
        for row in validated:
            for name in schema.scalar_columns:
                scalars[name].append(row[name])
            if schema.vector_column is not None:
                vectors.append(row[schema.vector_column])
        columns = schema.finalize_columns(scalars)
        if schema.vector_column is None:
            raise SchemaError("tables without a vector column are not supported")
        vector_array = np.asarray(vectors, dtype=np.float32)
        return self.ingest_columns(columns, vector_array)

    def ingest_columns(
        self, scalar_columns: Dict[str, Any], vectors: np.ndarray
    ) -> IngestReport:
        """Ingest pre-columnar data (the bulk-load fast path)."""
        schema = self._entry.schema
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise SchemaError(f"vectors must be 2-D, got shape {vectors.shape}")
        row_count = vectors.shape[0]
        if row_count == 0:
            return IngestReport()
        if schema.vector_dim and vectors.shape[1] != schema.vector_dim:
            raise SchemaError(
                f"vector dim {vectors.shape[1]} != declared DIM {schema.vector_dim}"
            )
        if not schema.vector_dim:
            schema.vector_dim = int(vectors.shape[1])
            if schema.index_spec is not None:
                schema.index_spec.dim = schema.vector_dim
        for name, values in scalar_columns.items():
            if len(values) != row_count:
                raise SchemaError(
                    f"column {name!r} has {len(values)} rows, expected {row_count}"
                )

        groups = self._partition(scalar_columns, vectors, row_count)
        report = IngestReport(rows=row_count)
        writes: List[float] = []
        builds: List[float] = []
        with self._clock.paused():
            # One ingest batch = one manifest swap: readers see either
            # none of the batch's segments or all of them.
            with self._manager.transaction():
                for partition_key, bucket_id, offsets in groups:
                    for chunk in _chunks(offsets, self.config.max_segment_rows):
                        write_cost, build_cost = self._write_segment(
                            scalar_columns, vectors, chunk, partition_key,
                            bucket_id, report,
                        )
                        writes.append(write_cost)
                        builds.append(build_cost)
        report.write_seconds = sum(writes)
        report.build_seconds = sum(builds)
        report.simulated_seconds = _pipeline_total(writes, builds)
        self._clock.advance(report.simulated_seconds)
        self._refresh_statistics(scalar_columns, row_count)
        self._metrics.incr("ingest.batches")
        self._metrics.incr("ingest.rows", row_count)
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _partition(
        self,
        scalar_columns: Dict[str, Any],
        vectors: np.ndarray,
        row_count: int,
    ) -> List[Tuple[Tuple[Any, ...], Optional[int], List[int]]]:
        """Rows grouped by (partition key, semantic bucket)."""
        schema = self._entry.schema
        keys = compute_partition_keys(schema.partition_by, scalar_columns, row_count)
        scalar_groups = group_rows_by_key(keys)

        if schema.cluster_buckets <= 0:
            return [(key, None, offsets) for key, offsets in scalar_groups.items()]

        if self._bucket_centroids is None:
            clustering = cluster_vectors(vectors, schema.cluster_buckets)
            self._bucket_centroids = clustering.centroids
            assignments = clustering.assignments
        else:
            assignments = assign_to_existing_buckets(vectors, self._bucket_centroids)

        out: List[Tuple[Tuple[Any, ...], Optional[int], List[int]]] = []
        for key, offsets in scalar_groups.items():
            by_bucket: Dict[int, List[int]] = {}
            for offset in offsets:
                by_bucket.setdefault(int(assignments[offset]), []).append(offset)
            for bucket_id, bucket_offsets in sorted(by_bucket.items()):
                out.append((key, bucket_id, bucket_offsets))
        return out

    def _write_segment(
        self,
        scalar_columns: Dict[str, Any],
        vectors: np.ndarray,
        offsets: List[int],
        partition_key: Tuple[Any, ...],
        bucket_id: Optional[int],
        report: IngestReport,
    ) -> Tuple[float, float]:
        """Cut one segment, build its index, persist both.

        Returns (write_cost, build_cost) in simulated seconds; the caller
        owns pipelining, so the clock is paused here.
        """
        schema = self._entry.schema
        index = np.asarray(offsets, dtype=np.int64)
        seg_scalars: Dict[str, Any] = {}
        for name, values in scalar_columns.items():
            if isinstance(values, np.ndarray):
                seg_scalars[name] = values[index]
            else:
                seg_scalars[name] = [values[i] for i in offsets]
        seg_vectors = vectors[index]
        centroid = None
        if bucket_id is not None and self._bucket_centroids is not None:
            centroid = self._bucket_centroids[bucket_id]
        segment_id = self._entry.allocate_segment_id()
        segment = Segment.from_columns(
            segment_id=segment_id,
            table=schema.name,
            scalar_columns=seg_scalars,
            vectors=seg_vectors,
            vector_column=schema.vector_column or "embedding",
            partition_key=partition_key,
            bucket_id=bucket_id,
            centroid=centroid,
        )
        segment.persist(self._store)
        write_cost = self._cost.object_store_write(segment.meta.total_nbytes)

        build_cost = 0.0
        index_key = None
        if schema.index_spec is not None:
            spec = auto_build_spec(schema.index_spec, segment.row_count)
            vindex = create_index(spec)
            vindex.train(seg_vectors)
            vindex.add_with_ids(seg_vectors, np.arange(segment.row_count))
            # PQ refinement re-ranks from the owning segment's raw vectors.
            vindex.set_refiner(segment.vectors_at)
            payload = serialize_index(vindex)
            index_key = index_storage_key(segment_id, spec.index_type)
            self._store.put(index_key, payload)
            build_cost = estimate_index_build_cost(
                spec.index_type, segment.row_count, segment.dim, spec.params, self._cost
            )
            build_cost += self._cost.object_store_write(len(payload))
            segment.meta.index_type = spec.index_type
            self.built_indexes[index_key] = vindex
            report.index_specs.append(spec)

        self._manager.commit(segment, index_key=index_key)
        self._entry.segment_ids.append(segment_id)
        report.segment_ids.append(segment_id)
        self._metrics.incr("ingest.segments")
        return write_cost, build_cost

    def _refresh_statistics(self, scalar_columns: Dict[str, Any], row_count: int) -> None:
        """Refresh table statistics from all visible segments.

        Statistics are rebuilt from segment columns (cheap at repro
        scale; a production system would sample).
        """
        schema = self._entry.schema
        merged: Dict[str, Any] = {}
        segments = self._manager.segments()
        for name in schema.scalar_columns:
            parts = [seg.scalar_column(name) for seg in segments]
            if not parts:
                continue
            if isinstance(parts[0], np.ndarray):
                merged[name] = np.concatenate(parts)
            else:
                merged[name] = [v for part in parts for v in part]
        total = self._manager.total_rows()
        self._entry.statistics.refresh(merged, total)
        if self.on_stats_refresh is not None:
            self.on_stats_refresh()


def _chunks(offsets: List[int], size: int) -> List[List[int]]:
    """Split ``offsets`` into consecutive chunks of at most ``size``."""
    if size <= 0:
        raise ValueError("max_segment_rows must be positive")
    return [offsets[i : i + size] for i in range(0, len(offsets), size)]


def _pipeline_total(writes: List[float], builds: List[float]) -> float:
    """Two-stage pipeline makespan: write stage feeds the build stage."""
    finish_write = 0.0
    finish_build = 0.0
    for write, build in zip(writes, builds):
        finish_write += write
        finish_build = max(finish_write, finish_build) + build
    return finish_build
