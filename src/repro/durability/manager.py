"""Durability orchestration for one engine.

The :class:`DurabilityManager` sits between the engine facade and the
WAL/checkpointer:

* every manifest publish (observed via the store's publish hook) is
  diffed against its predecessor and appended as a ``commit`` record —
  added segments with index keys, dropped ids, delete-bitmap successors,
  index-key updates;
* DDL appends ``create``/``drop`` records; statistics refreshes append
  ``stats`` records (histograms and cluster centroids are not derivable
  from replay alone, so they ride the log);
* at each statement boundary the buffer is group-committed (the
  acknowledgment point) and the WAL-bytes checkpoint trigger
  (:data:`CHECKPOINT_WAL_BYTES`) is checked;
* physical deletion of retired segment payloads is *deferred* until a
  checkpoint no longer references them — the previous checkpoint's
  manifest may still need those objects for recovery.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.durability.checkpoint import Checkpointer, CheckpointInfo
from repro.durability.crashpoints import CrashPointRegistry
from repro.durability.wal import WriteAheadLog
from repro.storage.manifest import Manifest
from repro.storage.segment import Segment

# Auto-checkpoint once this many WAL bytes accumulate since the last one.
CHECKPOINT_WAL_BYTES = 8 * 1024 * 1024


@dataclass
class DurabilityConfig:
    """Where the log and checkpoints live, and the crash-test seam."""

    wal_prefix: str = "wal/"
    checkpoint_prefix: str = "checkpoints/"
    crashpoints: Optional[CrashPointRegistry] = None


@dataclass
class _DeferredDelete:
    """Object keys whose physical deletion awaits a covering checkpoint."""

    safe_after_lsn: int
    keys: List[str] = field(default_factory=list)


class DurabilityManager:
    """WAL + checkpoint + deferred-GC coordination for one engine."""

    def __init__(self, db: Any, config: Optional[DurabilityConfig] = None) -> None:
        self.db = db
        self.config = config or DurabilityConfig()
        self.crashpoints = self.config.crashpoints or CrashPointRegistry()
        self._suspended = 0
        self._bytes_since_checkpoint = 0
        self._gc_pending: List[_DeferredDelete] = []
        self._checkpointing = False
        self.wal = WriteAheadLog(
            db.store, metrics=db.metrics,
            prefix=self.config.wal_prefix, crashpoints=self.crashpoints,
        )
        self.checkpointer = Checkpointer(
            db.store, self.wal, metrics=db.metrics, tracer=db.tracer,
            crashpoints=self.crashpoints, prefix=self.config.checkpoint_prefix,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether mutations are being logged right now."""
        return self._suspended == 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Stop logging while replay re-applies already-durable state."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_table(self, runtime: Any) -> None:
        """Subscribe to one table runtime's durability-relevant events."""
        table = runtime.entry.schema.name
        runtime.manager.on_publish(
            lambda previous, current, _t=table: self._log_publish(_t, previous, current)
        )
        runtime.writer.on_stats_refresh = (
            lambda _r=runtime: self._log_stats(_r)
        )
        runtime.compactor.defer_physical_delete = self.defer_segment_delete

    # ------------------------------------------------------------------
    # Record producers
    # ------------------------------------------------------------------
    def _log_publish(self, table: str, previous: Manifest, current: Manifest) -> None:
        if not self.active:
            return
        previous_ids = set(previous.segment_ids())
        current_ids = set(current.segment_ids())
        added: List[Tuple[str, Optional[str], int]] = []
        bitmaps: Dict[str, Dict[str, Any]] = {}
        index_keys: Dict[str, Optional[str]] = {}
        for sid in current.segment_ids():
            version = current.version(sid)
            if sid not in previous_ids:
                added.append((sid, version.index_key, version.segment.row_count))
                continue
            before = previous.version(sid)
            if before is version:
                continue
            if before.bitmap is not version.bitmap:
                bitmaps[sid] = {
                    "deleted": version.bitmap.deleted_offsets().tolist(),
                    "version": version.bitmap.version,
                }
            if before.index_key != version.index_key:
                index_keys[sid] = version.index_key
        dropped = [sid for sid in previous.segment_ids() if sid not in current_ids]
        self.wal.append(
            "commit",
            {
                "table": table,
                "manifest_id": current.manifest_id,
                "added": added,
                "dropped": dropped,
                "bitmaps": bitmaps,
                "index_keys": index_keys,
            },
        )

    def _log_stats(self, runtime: Any) -> None:
        if not self.active:
            return
        entry = runtime.entry
        schema = entry.schema
        self.wal.append(
            "stats",
            {
                "table": schema.name,
                "statistics": pickle.dumps(
                    entry.statistics, protocol=pickle.HIGHEST_PROTOCOL
                ),
                "centroids": runtime.writer._bucket_centroids,
                "vector_dim": schema.vector_dim,
                "index_dim": schema.index_spec.dim if schema.index_spec else None,
                "next_segment_seq": entry.next_segment_seq,
            },
        )

    def log_create(self, schema: Any) -> None:
        """Record a CREATE TABLE."""
        if not self.active:
            return
        self.wal.append(
            "create",
            {
                "table": schema.name,
                "schema": pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL),
            },
        )

    def log_drop(self, table: str) -> None:
        """Record a DROP TABLE."""
        if not self.active:
            return
        self.wal.append("drop", {"table": table})

    # ------------------------------------------------------------------
    # Statement boundary / checkpoint triggers
    # ------------------------------------------------------------------
    def statement_boundary(self) -> None:
        """Group-commit the statement's records; maybe auto-checkpoint.

        This is the acknowledgment point: once it returns, the statement
        survives any crash.
        """
        if not self.active:
            return
        self._bytes_since_checkpoint += self.wal.flush()
        if self._bytes_since_checkpoint >= CHECKPOINT_WAL_BYTES:
            self.checkpoint(reason="wal_bytes")

    def checkpoint(self, reason: str = "statement") -> Optional[CheckpointInfo]:
        """Flush, checkpoint, truncate the WAL, release deferred GC."""
        if not self.active or self._checkpointing:
            return None
        self._checkpointing = True
        try:
            self.wal.flush()
            info = self.checkpointer.write(self.db.catalog, self.db._tables, reason)
            self._bytes_since_checkpoint = 0
            self._run_deferred_gc(info.wal_lsn)
            return info
        finally:
            self._checkpointing = False

    # ------------------------------------------------------------------
    # Deferred physical deletion
    # ------------------------------------------------------------------
    def defer_segment_delete(self, segment: Segment, index_key: Optional[str]) -> None:
        """Queue a retired segment's payloads for post-checkpoint deletion.

        The last checkpoint's manifest may still reference the segment;
        deleting now would make that checkpoint unrecoverable.  The keys
        become deletable once a checkpoint covers the commit that
        dropped the segment.
        """
        keys = [
            Segment.column_key(segment.segment_id, column)
            for column in list(segment.scalar_column_names)
            + [segment.meta.vector_column]
        ]
        keys.append(Segment.meta_key(segment.segment_id))
        if index_key is not None:
            keys.append(index_key)
        self.defer_keys(keys)

    def defer_keys(self, keys: List[str]) -> None:
        """Queue raw object keys for post-checkpoint deletion."""
        if not keys:
            return
        self._gc_pending.append(
            _DeferredDelete(safe_after_lsn=self.wal.last_assigned_lsn, keys=keys)
        )

    @property
    def gc_pending_keys(self) -> int:
        """Object keys queued for post-checkpoint deletion."""
        return sum(len(entry.keys) for entry in self._gc_pending)

    def _run_deferred_gc(self, checkpoint_lsn: int) -> None:
        keep: List[_DeferredDelete] = []
        deleted = 0
        for entry in self._gc_pending:
            if entry.safe_after_lsn <= checkpoint_lsn:
                for key in entry.keys:
                    if self.db.store.delete(key):
                        deleted += 1
            else:
                keep.append(entry)
        self._gc_pending = keep
        if deleted:
            self.db.metrics.incr("durability.gc_deleted_objects", deleted)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Durability state summary (for shells and tests)."""
        return {
            "last_flushed_lsn": self.wal.last_flushed_lsn,
            "pending_records": self.wal.pending_records,
            "next_checkpoint_id": self.checkpointer.next_checkpoint_id,
            "bytes_since_checkpoint": self._bytes_since_checkpoint,
            "gc_pending_keys": self.gc_pending_keys,
        }
