"""Atomic metadata checkpoints in the shared object store.

A checkpoint serializes everything needed to cold-boot the engine except
segment/index payloads (those are already durable under ``segments/``
and ``indexes/``): the catalog (schemas, statistics, id allocators, and
the next segment sequence of each dropped table name), and
per table the *current* manifest — segment ids in commit order, each
with its frozen delete bitmap and index descriptor key — plus learned
cluster centroids so future ingest keeps bucket semantics stable.

Publication is write-new-then-swap-pointer: the checkpoint body goes to
``checkpoints/ckpt-<n>`` first, then a single small PUT atomically
repoints ``checkpoints/CURRENT`` at it.  A crash between the two leaves
the previous checkpoint intact.  After the swap the WAL is truncated up
to the checkpointed LSN and superseded checkpoint objects are deleted.

Triggers (wired in the durability manager): an explicit ``CHECKPOINT``
SQL statement, the WAL growing past a byte threshold, ``db.compact()``,
and ``DROP TABLE``.  After each, the durability manager sweeps the
segment and index payloads no live manifest holds, so compaction's
inputs and a dropped table's payloads go then.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.durability.crashpoints import CrashPointRegistry
from repro.durability.wal import WriteAheadLog
from repro.errors import RecoveryError
from repro.observe.events import emit_event
from repro.observe.trace import Tracer
from repro.simulate.metrics import MetricRegistry
from repro.storage.objectstore import ObjectStore

CHECKPOINT_FORMAT = 2


@dataclass
class CheckpointInfo:
    """Acknowledgment of one completed checkpoint."""

    checkpoint_id: int
    wal_lsn: int
    tables: int
    nbytes: int
    reason: str


class Checkpointer:
    """Writes checkpoints for one engine."""

    def __init__(
        self,
        store: ObjectStore,
        wal: WriteAheadLog,
        tracer: Tracer,
        metrics: Optional[MetricRegistry] = None,
        crashpoints: Optional[CrashPointRegistry] = None,
        prefix: str = "checkpoints/",
    ) -> None:
        self._store = store
        self._wal = wal
        self._metrics = metrics or MetricRegistry()
        self._tracer = tracer
        self._crash = crashpoints or CrashPointRegistry()
        self.prefix = prefix
        self.next_checkpoint_id = 1

    @property
    def pointer_key(self) -> str:
        """The CURRENT pointer object's key."""
        return f"{self.prefix}CURRENT"

    def data_key(self, checkpoint_id: int) -> str:
        """Key of one checkpoint's body object."""
        return f"{self.prefix}ckpt-{checkpoint_id:08d}"

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def _capture_table(self, entry: Any, runtime: Any) -> Dict[str, Any]:
        manifest = runtime.manager.store.current  # immutable: safe to walk
        versions: List[Dict[str, Any]] = []
        for sid in manifest.segment_ids():
            version = manifest.version(sid)
            versions.append(
                {
                    "segment_id": sid,
                    "index_key": version.index_key,
                    "bitmap": version.bitmap.to_bytes(),
                    "bitmap_version": version.bitmap.version,
                }
            )
        return {
            "name": entry.schema.name,
            "schema": pickle.dumps(entry.schema, protocol=pickle.HIGHEST_PROTOCOL),
            "statistics": pickle.dumps(
                entry.statistics, protocol=pickle.HIGHEST_PROTOCOL
            ),
            "next_segment_seq": entry.next_segment_seq,
            "centroids": runtime.writer._bucket_centroids,
            "manifest": {
                "manifest_id": manifest.manifest_id,
                "next_id": runtime.manager.store.next_id,
                "order": manifest.segment_ids(),
                "versions": versions,
            },
        }

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def write(self, catalog: Any, tables: Dict[str, Any], reason: str) -> CheckpointInfo:
        """Capture, upload, swap the pointer, truncate the WAL."""
        with self._tracer.span("checkpoint", reason=reason):
            self._crash.hit("checkpoint.before_upload")
            wal_lsn = self._wal.last_flushed_lsn
            checkpoint_id = self.next_checkpoint_id
            body = pickle.dumps(
                {
                    "format": CHECKPOINT_FORMAT,
                    "checkpoint_id": checkpoint_id,
                    "wal_lsn": wal_lsn,
                    "next_seqs": dict(catalog.next_seqs),
                    "tables": [
                        self._capture_table(entry, tables[entry.schema.name])
                        for entry in catalog.entries()
                    ],
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            data_key = self.data_key(checkpoint_id)
            self._store.put(data_key, body)
            self._crash.hit("checkpoint.mid_upload")
            pointer = pickle.dumps(
                {
                    "key": data_key,
                    "checkpoint_id": checkpoint_id,
                    "wal_lsn": wal_lsn,
                    "crc": zlib.crc32(body) & 0xFFFFFFFF,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            # The atomic swap: one small PUT republishes CURRENT.
            self._store.put(self.pointer_key, pointer)
            self.next_checkpoint_id = checkpoint_id + 1
            self._crash.hit("checkpoint.before_truncate")
            self._wal.truncate_upto(wal_lsn)
            for key in self._store.list_keys(self.prefix):
                if key not in (data_key, self.pointer_key):
                    self._store.delete(key)
            self._crash.hit("checkpoint.after_truncate")
            self._metrics.incr("durability.checkpoints")
            self._metrics.incr("durability.checkpoint_bytes", len(body))
            emit_event(
                self._metrics, "checkpoint.swap",
                checkpoint_id=checkpoint_id, wal_lsn=wal_lsn,
                nbytes=len(body), reason=reason,
            )
        return CheckpointInfo(
            checkpoint_id=checkpoint_id,
            wal_lsn=wal_lsn,
            tables=len(catalog.entries()),
            nbytes=len(body),
            reason=reason,
        )


def load_pointer(store: ObjectStore, prefix: str = "checkpoints/") -> Optional[Dict[str, Any]]:
    """The CURRENT pointer's contents, or None when never checkpointed."""
    key = f"{prefix}CURRENT"
    if key not in store:
        return None
    return pickle.loads(store.get(key))


def load_checkpoint(store: ObjectStore, pointer: Dict[str, Any]) -> Dict[str, Any]:
    """Fetch and validate the checkpoint body the pointer names.

    Raises
    ------
    RecoveryError
        When the body is missing or fails its CRC — the pointer swap is
        atomic, so this indicates external corruption, not a torn
        checkpoint.
    """
    key = pointer["key"]
    if key not in store:
        raise RecoveryError(f"checkpoint body {key!r} is missing")
    body = store.get(key)
    if zlib.crc32(body) & 0xFFFFFFFF != pointer["crc"]:
        raise RecoveryError(f"checkpoint body {key!r} failed CRC validation")
    data = pickle.loads(body)
    if data.get("format") != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"unsupported checkpoint format {data.get('format')!r}"
        )
    return data

