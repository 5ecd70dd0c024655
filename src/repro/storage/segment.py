"""Immutable columnar segments.

A segment is the paper's unit of everything: it is written once at ingest
(or by compaction), gets exactly one vector index built for it, is
scheduled to workers by consistent hashing, and is pruned as a whole by
partition metadata.  Rows inside a segment are addressed by *row offset*,
which is what the per-segment vector index stores instead of primary keys
(paper §III-B, "per segment vector index").

Column data lives in independently persistable blocks so scans can read
only the columns (and ranges) they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SegmentError
from repro.storage.blockio import block_nbytes, decode_block, encode_block
from repro.storage.objectstore import ObjectStore


@dataclass
class ColumnStats:
    """Min/max summary for one scalar column, used for segment pruning."""

    minimum: Any
    maximum: Any

    def overlaps_range(self, low: Any, high: Any) -> bool:
        """Whether [low, high] intersects this column's [min, max].

        ``None`` bounds are open (unbounded) on that side.
        """
        if low is not None and self.maximum is not None and self.maximum < low:
            return False
        if high is not None and self.minimum is not None and self.minimum > high:
            return False
        return True


@dataclass
class SegmentMeta:
    """Everything the scheduler and pruner need without reading row data."""

    segment_id: str
    table: str
    row_count: int
    vector_column: str
    dim: int
    version: int = 0
    level: int = 0
    partition_key: Tuple[Any, ...] = ()
    bucket_id: Optional[int] = None
    centroid: Optional[np.ndarray] = None
    column_stats: Dict[str, ColumnStats] = field(default_factory=dict)
    index_type: Optional[str] = None
    nbytes_by_column: Dict[str, int] = field(default_factory=dict)

    @property
    def total_nbytes(self) -> int:
        """Persisted size of all column blocks."""
        return sum(self.nbytes_by_column.values())


def _compute_stats(name: str, values: Any) -> Optional[ColumnStats]:
    """Min/max stats for a column, or None for empty/unorderable data."""
    if isinstance(values, np.ndarray):
        if values.size == 0 or values.ndim != 1:
            return None
        return ColumnStats(minimum=values.min().item(), maximum=values.max().item())
    if isinstance(values, list) and values and all(isinstance(v, str) for v in values):
        return ColumnStats(minimum=min(values), maximum=max(values))
    return None


class Segment:
    """An immutable bundle of scalar columns plus one vector column.

    Construct with :meth:`from_columns`; mutation methods do not exist by
    design.  ``meta`` is cheap metadata that travels to schedulers; the
    column payloads stay here (or in the object store once persisted).
    """

    def __init__(
        self,
        meta: SegmentMeta,
        scalar_columns: Dict[str, Any],
        vectors: np.ndarray,
    ) -> None:
        if vectors.ndim != 2:
            raise SegmentError(f"vectors must be 2-D, got shape {vectors.shape}")
        if vectors.shape[0] != meta.row_count:
            raise SegmentError(
                f"vector row count {vectors.shape[0]} != meta row count {meta.row_count}"
            )
        if vectors.shape[1] != meta.dim:
            raise SegmentError(
                f"vector dim {vectors.shape[1]} != meta dim {meta.dim}"
            )
        for name, values in scalar_columns.items():
            length = len(values)
            if length != meta.row_count:
                raise SegmentError(
                    f"column {name!r} has {length} rows, expected {meta.row_count}"
                )
        self.meta = meta
        # Scalar numpy columns are exposed through read-only views: the
        # column buffer may be shared (decoded blocks, concurrent
        # queries) and segments are immutable by contract.  The caller's
        # array stays writable — only the segment-held view is locked.
        self._scalars = {}
        for name, values in scalar_columns.items():
            if isinstance(values, np.ndarray):
                values = values.view()
                values.setflags(write=False)
            self._scalars[name] = values
        self._vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self._vectors.setflags(write=False)
        self._blocks: Dict[str, Tuple[str, int, float]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        segment_id: str,
        table: str,
        scalar_columns: Dict[str, Any],
        vectors: np.ndarray,
        vector_column: str = "embedding",
        version: int = 0,
        level: int = 0,
        partition_key: Tuple[Any, ...] = (),
        bucket_id: Optional[int] = None,
        centroid: Optional[np.ndarray] = None,
    ) -> "Segment":
        """Build a segment and derive its metadata (stats, sizes, centroid).

        If ``centroid`` is not supplied it defaults to the mean of the
        segment's vectors, which is what semantic pruning compares query
        vectors against.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise SegmentError(f"vectors must be 2-D, got shape {vectors.shape}")
        row_count, dim = vectors.shape
        stats: Dict[str, ColumnStats] = {}
        sizes: Dict[str, int] = {}
        for name, values in scalar_columns.items():
            col_stats = _compute_stats(name, values)
            if col_stats is not None:
                stats[name] = col_stats
            sizes[name] = block_nbytes(values)
        sizes[vector_column] = block_nbytes(vectors)
        if centroid is None and row_count > 0:
            centroid = vectors.mean(axis=0)
        meta = SegmentMeta(
            segment_id=segment_id,
            table=table,
            row_count=row_count,
            vector_column=vector_column,
            dim=dim,
            version=version,
            level=level,
            partition_key=tuple(partition_key),
            bucket_id=bucket_id,
            centroid=None if centroid is None else np.asarray(centroid, dtype=np.float32),
            column_stats=stats,
            nbytes_by_column=sizes,
        )
        return cls(meta, scalar_columns, vectors)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def segment_id(self) -> str:
        """Stable identifier, hashed by the consistent-hash scheduler."""
        return self.meta.segment_id

    @property
    def row_count(self) -> int:
        """Physical rows (including any logically deleted ones)."""
        return self.meta.row_count

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self.meta.dim

    def vectors(self) -> np.ndarray:
        """Read-only view of the full vector column."""
        return self._vectors

    def vectors_at(self, offsets: Sequence[int]) -> np.ndarray:
        """Vectors at specific row offsets (gather for re-ranking)."""
        return self._vectors[np.asarray(offsets, dtype=np.int64)]

    def scalar_column(self, name: str) -> Any:
        """The full scalar column ``name``."""
        try:
            return self._scalars[name]
        except KeyError:
            raise SegmentError(
                f"segment {self.segment_id!r} has no column {name!r}"
            ) from None

    def column_block(self, column: str) -> Tuple[str, int, float]:
        """(cache key, block bytes, bytes per row) of one column block,
        worked out once: the memo dies with the segment."""
        block = self._blocks.get(column)
        if block is None:
            rows = self.row_count
            nbytes = self.meta.nbytes_by_column.get(column, 8 * rows)
            block = (f"{self.segment_id}/{column}", nbytes, nbytes / max(1, rows))
            self._blocks[column] = block
        return block

    def scalar_at(self, name: str, offsets: Sequence[int]) -> Any:
        """Values of column ``name`` at ``offsets`` (non-consecutive fetch)."""
        column = self.scalar_column(name)
        index = np.asarray(offsets, dtype=np.int64)
        if isinstance(column, np.ndarray):
            return column[index]
        return [column[i] for i in index]

    @property
    def scalar_column_names(self) -> List[str]:
        """Names of all scalar columns in this segment."""
        return sorted(self._scalars)

    def row(self, offset: int) -> Dict[str, Any]:
        """Materialize one full row (debugging / examples)."""
        if not 0 <= offset < self.row_count:
            raise SegmentError(f"row offset {offset} out of range")
        out: Dict[str, Any] = {
            name: (col[offset] if not isinstance(col, np.ndarray) else col[offset].item()
                   if col[offset].ndim == 0 else col[offset])
            for name, col in self._scalars.items()
        }
        out[self.meta.vector_column] = self._vectors[offset]
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @staticmethod
    def column_key(segment_id: str, column: str) -> str:
        """Object-store key for one column block."""
        return f"segments/{segment_id}/columns/{column}"

    @staticmethod
    def meta_key(segment_id: str) -> str:
        """Object-store key for segment metadata."""
        return f"segments/{segment_id}/meta"

    def persist(self, store: ObjectStore) -> None:
        """Write every column block and the metadata to the object store."""
        for name, values in self._scalars.items():
            store.put(self.column_key(self.segment_id, name), encode_block(values))
        store.put(
            self.column_key(self.segment_id, self.meta.vector_column),
            encode_block(self._vectors),
        )
        store.put(self.meta_key(self.segment_id), encode_block(self._meta_payload()))

    def _meta_payload(self) -> Dict[str, Any]:
        meta = self.meta
        return {
            "segment_id": meta.segment_id,
            "table": meta.table,
            "row_count": meta.row_count,
            "vector_column": meta.vector_column,
            "dim": meta.dim,
            "version": meta.version,
            "level": meta.level,
            "partition_key": meta.partition_key,
            "bucket_id": meta.bucket_id,
            "centroid": meta.centroid,
            "column_stats": {
                name: (stats.minimum, stats.maximum)
                for name, stats in meta.column_stats.items()
            },
            "index_type": meta.index_type,
            "nbytes_by_column": dict(meta.nbytes_by_column),
            "scalar_columns": sorted(self._scalars),
        }

    @classmethod
    def load(cls, store: ObjectStore, segment_id: str) -> "Segment":
        """Rebuild a full segment from the object store (cold read path)."""
        raw_meta = decode_block(store.get(cls.meta_key(segment_id)))
        scalars: Dict[str, Any] = {}
        for name in raw_meta["scalar_columns"]:
            scalars[name] = decode_block(store.get(cls.column_key(segment_id, name)))
        vectors = decode_block(
            store.get(cls.column_key(segment_id, raw_meta["vector_column"]))
        )
        meta = SegmentMeta(
            segment_id=raw_meta["segment_id"],
            table=raw_meta["table"],
            row_count=raw_meta["row_count"],
            vector_column=raw_meta["vector_column"],
            dim=raw_meta["dim"],
            version=raw_meta["version"],
            level=raw_meta["level"],
            partition_key=tuple(raw_meta["partition_key"]),
            bucket_id=raw_meta["bucket_id"],
            centroid=raw_meta["centroid"],
            column_stats={
                name: ColumnStats(minimum=lo, maximum=hi)
                for name, (lo, hi) in raw_meta["column_stats"].items()
            },
            index_type=raw_meta["index_type"],
            nbytes_by_column=dict(raw_meta["nbytes_by_column"]),
        )
        return cls(meta, scalars, vectors)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Segment(id={self.segment_id!r}, rows={self.row_count}, "
            f"dim={self.dim}, level={self.meta.level})"
        )
