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
* after each checkpoint's pointer swap, one LIST of the store finds the
  segment and index payloads no strong manifest of a live table holds,
  and deletes them: retired segments', and whatever a crash left behind
  (an unacknowledged statement's, or retired ones the crashed engine
  never swept).
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.durability.checkpoint import Checkpointer, CheckpointInfo
from repro.durability.crashpoints import CrashPointRegistry
from repro.durability.wal import WriteAheadLog
from repro.storage.manifest import Manifest

# Auto-checkpoint once this many WAL bytes accumulate since the last one.
CHECKPOINT_WAL_BYTES = 8 * 1024 * 1024


@dataclass
class DurabilityConfig:
    """The crash-test seam."""

    crashpoints: Optional[CrashPointRegistry] = None


class DurabilityManager:
    """WAL, checkpoints and payload garbage collection for one engine.

    One engine owns its object store: the checkpoint's sweep deletes
    every ``segments/`` and ``indexes/`` key that this engine's tables
    do not hold.
    """

    def __init__(self, db: Any, config: Optional[DurabilityConfig] = None) -> None:
        self.db = db
        self.config = config or DurabilityConfig()
        self.crashpoints = self.config.crashpoints or CrashPointRegistry()
        self._suspended = 0
        self._bytes_since_checkpoint = 0
        self._checkpointing = False
        self.wal = WriteAheadLog(
            db.store, metrics=db.metrics, crashpoints=self.crashpoints
        )
        self.checkpointer = Checkpointer(
            db.store, self.wal, metrics=db.metrics, tracer=db.tracer,
            crashpoints=self.crashpoints,
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
        """Flush, checkpoint, truncate the WAL, sweep unheld payloads."""
        if not self.active or self._checkpointing:
            return None
        self._checkpointing = True
        try:
            self.wal.flush()
            info = self.checkpointer.write(self.db.catalog, self.db._tables, reason)
            self._bytes_since_checkpoint = 0
            self._sweep()
            return info
        finally:
            self._checkpointing = False

    def _sweep(self) -> None:
        """Delete every segment and index payload no live table holds.

        Runs only after a pointer swap: before it, the previous
        checkpoint may still name a retired segment; the one just written
        names only held ones.
        """
        held = set()
        for runtime in self.db._tables.values():
            held |= runtime.manager.store.held_segment_ids()
        deleted = 0
        for key in self.db.store.list_keys():
            # <root>/<table>/seg-<n>/...: the id is the two parts after root.
            root, _, rest = key.partition("/")
            if root in ("segments", "indexes") and (
                "/".join(rest.split("/", 2)[:2]) not in held
            ):
                deleted += self.db.store.delete(key)
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
        }
