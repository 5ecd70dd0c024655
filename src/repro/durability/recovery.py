"""Cold-boot recovery: latest checkpoint plus WAL tail replay.

Given an object store containing only durable state — segment and index
payloads, checkpoint objects, WAL chunks — recovery rebuilds a fresh
engine that answers queries identically to the pre-crash one:

1. load ``checkpoints/CURRENT`` (if any) and rebuild the catalog (first
   the next segment sequence of each dropped name), table runtimes,
   manifests (via :meth:`ManifestStore.restore`, preserving
   ``manifest_id`` monotonicity for ``AS OF`` and the plan cache),
   delete bitmaps, and learned cluster centroids;
2. read the WAL, truncating a torn tail at the last complete group
   commit, and replay records with LSN beyond the checkpoint: manifest
   commits re-publish segment adds (loading payloads cold from the
   store), drops, and bitmap successors; DDL recreates/drops tables;
   ``stats`` records reinstate histograms and centroids;
3. hand the surviving WAL position back to the live log so new commits
   continue the LSN sequence.

All object-store reads charge the simulated clock, which is what the
recovery benchmark measures.  The whole pass runs under ``recover`` /
``load_checkpoint`` / ``replay_wal`` tracer spans.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durability.checkpoint import load_checkpoint, load_pointer
from repro.durability.wal import WalRecord, read_wal
from repro.errors import RecoveryError
from repro.observe.trace import Span
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.manifest import Manifest, SegmentVersion
from repro.storage.segment import Segment


@dataclass
class RecoveryReport:
    """What one recovery pass did."""

    checkpoint_id: Optional[int] = None
    checkpoint_lsn: int = 0
    tables: List[str] = field(default_factory=list)
    replayed_records: int = 0
    segments_loaded: int = 0
    torn_records_dropped: int = 0
    simulated_seconds: float = 0.0
    trace: Optional[Span] = None

    def render(self) -> str:
        """EXPLAIN-style text: summary line plus the recovery span tree."""
        lines = [
            f"RECOVERY checkpoint={self.checkpoint_id} "
            f"lsn={self.checkpoint_lsn} tables={len(self.tables)} "
            f"replayed={self.replayed_records} "
            f"segments_loaded={self.segments_loaded} "
            f"torn_dropped={self.torn_records_dropped} "
            f"({self.simulated_seconds * 1e3:.3f} sim-ms)"
        ]
        if self.trace is not None:
            lines.append(self.trace.render())
        return "\n".join(lines)


def _segment_seq(segment_id: str) -> int:
    """The allocator sequence number embedded in a segment id."""
    try:
        return int(segment_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


def run_recovery(db: Any) -> RecoveryReport:
    """Rebuild ``db`` (a freshly constructed engine) from its store.

    Must run with the durability manager suspended: replay re-applies
    state that is already durable and must not be re-logged.
    """
    report = RecoveryReport()
    store = db.store
    start = db.clock.now
    with db.tracer.span("recover") as root:
        report.trace = root
        with db.tracer.span("load_checkpoint") as span:
            pointer = load_pointer(store)
            checkpoint = None
            if pointer is not None:
                checkpoint = load_checkpoint(store, pointer)
                report.checkpoint_id = checkpoint["checkpoint_id"]
                report.checkpoint_lsn = checkpoint["wal_lsn"]
                db.catalog.next_seqs.update(checkpoint["next_seqs"])
                for table_state in checkpoint["tables"]:
                    _restore_table(db, table_state, report)
                db._durability.checkpointer.next_checkpoint_id = (
                    checkpoint["checkpoint_id"] + 1
                )
            span.set_tag("checkpoint_id", report.checkpoint_id)
            span.set_tag("tables", len(report.tables))
        with db.tracer.span("replay_wal") as span:
            state = read_wal(store, metrics=db.metrics)
            report.torn_records_dropped = state.torn_records_dropped
            for record in state.records:
                if record.lsn <= report.checkpoint_lsn:
                    continue
                _replay_record(db, record, report)
                report.replayed_records += 1
                db.metrics.incr("durability.recovery_replayed_records")
            db._durability.wal.adopt(state, floor_lsn=report.checkpoint_lsn)
            span.set_tag("replayed", report.replayed_records)
            span.set_tag("torn_dropped", report.torn_records_dropped)
        root.set_tag("segments_loaded", report.segments_loaded)
    report.simulated_seconds = db.clock.elapsed_since(start)
    db.metrics.incr("durability.recoveries")
    return report


# ----------------------------------------------------------------------
# Checkpoint restore
# ----------------------------------------------------------------------
def _restore_table(db: Any, table_state: Dict[str, Any], report: RecoveryReport) -> None:
    schema = pickle.loads(table_state["schema"])
    entry = db.catalog.create_table(schema)
    entry.statistics = pickle.loads(table_state["statistics"])
    entry.next_segment_seq = table_state["next_segment_seq"]
    runtime = db._attach_runtime(entry)
    centroids = table_state["centroids"]
    if centroids is not None:
        runtime.writer._bucket_centroids = centroids

    manifest_state = table_state["manifest"]
    versions: Dict[str, SegmentVersion] = {}
    for version_state in manifest_state["versions"]:
        sid = version_state["segment_id"]
        segment = Segment.load(db.store, sid)  # cold read, charged
        report.segments_loaded += 1
        bitmap = DeleteBitmap.from_bytes(version_state["bitmap"])
        bitmap.version = version_state["bitmap_version"]
        bitmap.freeze()
        versions[sid] = SegmentVersion(
            segment=segment, bitmap=bitmap, index_key=version_state["index_key"]
        )
    manifest = Manifest(
        manifest_state["manifest_id"],
        schema.name,
        versions,
        tuple(manifest_state["order"]),
    )
    runtime.manager.store.restore(manifest, manifest_state["next_id"])
    report.tables.append(schema.name)


# ----------------------------------------------------------------------
# WAL replay
# ----------------------------------------------------------------------
def _replay_record(db: Any, record: WalRecord, report: RecoveryReport) -> None:
    handler = _REPLAY_HANDLERS.get(record.kind)
    if handler is None:
        raise RecoveryError(f"unknown WAL record kind {record.kind!r}")
    handler(db, record.data, report)


def _replay_create(db: Any, data: Dict[str, Any], report: RecoveryReport) -> None:
    schema = pickle.loads(data["schema"])
    if schema.name in db.catalog:
        return  # state already newer than this record (idempotent replay)
    entry = db.catalog.create_table(schema)
    db._attach_runtime(entry)
    report.tables.append(schema.name)


def _replay_drop(db: Any, data: Dict[str, Any], report: RecoveryReport) -> None:
    name = data["table"]
    if name not in db.catalog:
        return
    db.catalog.drop_table(name)  # keeps the name's next segment sequence
    # This engine's next checkpoint sweeps the payloads, if the crashed
    # one's did not.
    db._drop_table(name)
    if name in report.tables:
        report.tables.remove(name)


def _replay_commit(db: Any, data: Dict[str, Any], report: RecoveryReport) -> None:
    name = data["table"]
    if name not in db.catalog:
        raise RecoveryError(f"commit record for unknown table {name!r}")
    runtime = db._tables[name]
    entry = runtime.entry
    if data["manifest_id"] <= runtime.manager.manifest_id:
        return  # already covered by the checkpoint
    with runtime.manager.transaction() as edit:
        for sid, index_key, _row_count in data["added"]:
            segment = Segment.load(db.store, sid)  # cold read, charged
            report.segments_loaded += 1
            edit.commit(segment, index_key=index_key)
            entry.next_segment_seq = max(
                entry.next_segment_seq, _segment_seq(sid) + 1
            )
        for sid in data["dropped"]:
            edit.drop(sid)
        for sid, bitmap_state in data["bitmaps"].items():
            row_count = edit.segment(sid).row_count
            bitmap = DeleteBitmap(row_count, version=bitmap_state["version"])
            bitmap.mark_deleted(bitmap_state["deleted"])
            edit.set_bitmap(sid, bitmap.freeze())
        for sid, index_key in data["index_keys"].items():
            edit.set_index_key(sid, index_key)
    if runtime.manager.manifest_id != data["manifest_id"]:
        raise RecoveryError(
            f"replay of table {name!r} produced manifest "
            f"{runtime.manager.manifest_id}, WAL recorded {data['manifest_id']} "
            "(manifest_id monotonicity violated)"
        )


def _replay_stats(db: Any, data: Dict[str, Any], report: RecoveryReport) -> None:
    name = data["table"]
    if name not in db.catalog:
        return
    runtime = db._tables[name]
    entry = runtime.entry
    entry.statistics = pickle.loads(data["statistics"])
    entry.next_segment_seq = max(entry.next_segment_seq, data["next_segment_seq"])
    if data["centroids"] is not None:
        runtime.writer._bucket_centroids = data["centroids"]
    schema = entry.schema
    if data["vector_dim"]:
        schema.vector_dim = data["vector_dim"]
    if data["index_dim"] and schema.index_spec is not None:
        schema.index_spec.dim = data["index_dim"]


_REPLAY_HANDLERS = {
    "create": _replay_create,
    "drop": _replay_drop,
    "commit": _replay_commit,
    "stats": _replay_stats,
}
