"""Background segment compaction with automatic index rebuild.

The LSM engine continuously merges small segments into larger ones; the
per-segment index design makes vector-index consolidation free — the
compaction task simply builds one new index for the merged segment
(paper §III-B "Vector index compaction").  Compaction also physically
drops rows marked dead by updates, which is what restores query
performance in Fig 14.

Merge policy: within each (level, partition key, bucket) group below
:data:`MAX_LEVEL`, when the group holds at least :data:`FANOUT` segments
— or any segment's deleted fraction exceeds :data:`MAX_DELETED_FRACTION`
— up to ``FANOUT`` oldest segments merge into one at the next level.

The merged segment's index parameters come from the auto-index rule
alone (:func:`repro.vindex.autoindex.auto_build_spec`), as at ingest.
The paper also auto-tunes them by measurement during background
compaction; this reproduction does not, because a choice made by timing
searches would make the stored index depend on the host's speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.catalog.catalog import TableEntry
from repro.ingest.buildcost import estimate_index_build_cost
from repro.observe.events import emit_event
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.lsm import SegmentManager, index_storage_key
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment
from repro.vindex.autoindex import auto_build_spec
from repro.vindex.registry import create_index, serialize_index

RetireHook = Callable[[str, Optional[str]], None]

FANOUT = 4
MAX_DELETED_FRACTION = 0.3
MAX_LEVEL = 6


@dataclass
class CompactionResult:
    """One merge: which segments went in, what came out."""

    input_segment_ids: List[str]
    output_segment_id: str
    rows_in: int
    rows_out: int
    dropped_dead_rows: int
    simulated_seconds: float


@dataclass
class Compactor:
    """Background compaction driver for one table."""

    entry: TableEntry
    manager: SegmentManager
    store: ObjectStore
    clock: SimulatedClock
    cost: DeviceCostModel = field(default_factory=DeviceCostModel)
    metrics: MetricRegistry = field(default_factory=MetricRegistry)
    retire_hooks: List[RetireHook] = field(default_factory=list)
    # When set (by the durability manager), retired payloads are not
    # deleted here but queued until a checkpoint no longer references
    # them — the last checkpoint's manifest may still need the objects
    # for cold-restart recovery.
    defer_physical_delete: Optional[Callable[[Segment, Optional[str]], None]] = None

    def __post_init__(self) -> None:
        # Physical deletion is deferred to the MVCC layer: a compacted
        # input leaves the *current* manifest immediately, but its
        # payloads and index survive until the last retained or pinned
        # manifest referencing it expires.  Only then is it safe to
        # delete objects and invalidate caches.
        self.manager.on_retire(self._on_segment_retired)

    def on_retire(self, hook: RetireHook) -> None:
        """Register a callback fired with (segment_id, index_key) once a
        segment is physically retired (no live manifest references it) —
        workers use it to invalidate index caches."""
        self.retire_hooks.append(hook)

    def _on_segment_retired(self, segment: Segment, index_key: Optional[str]) -> None:
        """Manifest-store callback: last reference to ``segment`` died."""
        for hook in self.retire_hooks:
            hook(segment.segment_id, index_key)
        if self.defer_physical_delete is not None:
            self.defer_physical_delete(segment, index_key)
            return
        with self.clock.paused():
            for column in list(segment.scalar_column_names) + [
                segment.meta.vector_column
            ]:
                self.store.delete(Segment.column_key(segment.segment_id, column))
            self.store.delete(Segment.meta_key(segment.segment_id))
            if index_key is not None:
                self.store.delete(index_key)

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _groups(self) -> Dict[Tuple[int, Tuple[Any, ...], Optional[int]], List[Segment]]:
        groups: Dict[Tuple[int, Tuple[Any, ...], Optional[int]], List[Segment]] = {}
        for segment in self.manager.segments():
            meta = segment.meta
            key = (meta.level, meta.partition_key, meta.bucket_id)
            groups.setdefault(key, []).append(segment)
        return groups

    def pick_merge_candidates(self) -> List[List[Segment]]:
        """Groups of segments that should merge now, oldest first."""
        candidates: List[List[Segment]] = []
        for (level, _, _), segments in sorted(
            self._groups().items(), key=lambda kv: (kv[0][0], str(kv[0][1]), str(kv[0][2]))
        ):
            if level >= MAX_LEVEL:
                continue
            dirty = [
                seg for seg in segments
                if seg.row_count > 0
                and self.manager.bitmap(seg.segment_id).deleted_count
                > MAX_DELETED_FRACTION * seg.row_count
            ]
            if len(segments) >= FANOUT:
                candidates.append(segments[:FANOUT])
            elif dirty:
                candidates.append(segments)
        return candidates

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_once(self) -> List[CompactionResult]:
        """Execute one round of merges; returns what was compacted."""
        results = []
        for group in self.pick_merge_candidates():
            results.append(self._merge(group))
        return results

    def compact_all(self, max_rounds: int = 32) -> List[CompactionResult]:
        """Run rounds until the policy finds nothing to merge."""
        all_results: List[CompactionResult] = []
        for _ in range(max_rounds):
            round_results = self.run_once()
            if not round_results:
                break
            all_results.extend(round_results)
        return all_results

    def _merge(self, group: List[Segment]) -> CompactionResult:
        """Merge one group into a single next-level segment."""
        schema = self.entry.schema
        first = group[0]
        emit_event(
            self.metrics, "compaction.start", table=schema.name,
            inputs=[segment.segment_id for segment in group],
            level=first.meta.level,
        )
        # Per column: the alive slice of each input for numpy columns,
        # the alive values themselves for list columns.
        alive_scalars: Dict[str, List[Any]] = {
            name: [] for name in first.scalar_column_names
        }
        alive_vectors: List[np.ndarray] = []
        rows_in = 0
        dead = 0
        for segment in group:
            bitmap = self.manager.bitmap(segment.segment_id)
            alive = np.flatnonzero(bitmap.alive_mask())
            rows_in += segment.row_count
            dead += segment.row_count - int(alive.size)
            if alive.size == 0:
                continue
            for name in segment.scalar_column_names:
                column = segment.scalar_column(name)
                if isinstance(column, np.ndarray):
                    alive_scalars[name].append(column[alive])
                else:
                    alive_scalars[name].extend(column[i] for i in alive.tolist())
            alive_vectors.append(segment.vectors_at(alive))

        merged_vectors = (
            np.vstack(alive_vectors)
            if alive_vectors
            else np.empty((0, first.dim), dtype=np.float32)
        )
        merged_scalars: Dict[str, Any] = {}
        for name, values in alive_scalars.items():
            column = first.scalar_column(name)
            if isinstance(column, np.ndarray):
                merged_scalars[name] = (
                    np.concatenate(values).astype(column.dtype, copy=False)
                    if values
                    else np.empty(0, dtype=column.dtype)
                )
            else:
                merged_scalars[name] = list(values)

        new_id = self.entry.allocate_segment_id()
        merged = Segment.from_columns(
            segment_id=new_id,
            table=schema.name,
            scalar_columns=merged_scalars,
            vectors=merged_vectors,
            vector_column=first.meta.vector_column,
            level=first.meta.level + 1,
            partition_key=first.meta.partition_key,
            bucket_id=first.meta.bucket_id,
        )

        simulated = 0.0
        index_key = None
        with self.clock.paused():
            merged.persist(self.store)
            simulated += self.cost.object_store_write(merged.meta.total_nbytes)
            if schema.index_spec is not None and merged.row_count > 0:
                spec = auto_build_spec(schema.index_spec, merged.row_count)
                vindex = create_index(spec)
                vindex.train(merged_vectors)
                vindex.add_with_ids(merged_vectors, np.arange(merged.row_count))
                payload = serialize_index(vindex)
                index_key = index_storage_key(new_id, spec.index_type)
                self.store.put(index_key, payload)
                merged.meta.index_type = spec.index_type
                simulated += estimate_index_build_cost(
                    spec.index_type, merged.row_count, merged.dim, spec.params, self.cost
                )
                simulated += self.cost.object_store_write(len(payload))

            # Swap inputs for the merged segment in ONE manifest commit:
            # concurrent readers observe either the whole group or its
            # replacement, never a half-merged table.  Inputs are only
            # *logically* dropped here — physical deletion waits for the
            # retire callback once no snapshot can reach them.
            with self.manager.transaction() as edit:
                for segment in group:
                    edit.drop(segment.segment_id)
                    if segment.segment_id in self.entry.segment_ids:
                        self.entry.segment_ids.remove(segment.segment_id)
                edit.commit(merged, index_key=index_key)
            self.entry.segment_ids.append(new_id)
        self.clock.advance(simulated)
        self.metrics.incr("compaction.merges")
        self.metrics.incr("compaction.rows_dropped", dead)
        emit_event(
            self.metrics, "compaction.finish", table=schema.name,
            output_segment_id=new_id, rows_in=rows_in,
            rows_out=merged.row_count, dropped=dead,
            simulated_s=simulated,
        )
        return CompactionResult(
            input_segment_ids=[segment.segment_id for segment in group],
            output_segment_id=new_id,
            rows_in=rows_in,
            rows_out=merged.row_count,
            dropped_dead_rows=dead,
            simulated_seconds=simulated,
        )
