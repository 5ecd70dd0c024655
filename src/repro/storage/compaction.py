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
alone (:func:`repro.vindex.autoindex.auto_build_spec`), built by the
same :func:`repro.ingest.buildcost.build_segment_index` as at ingest.
An IVF-family merge trains its coarse quantizer from the centroids its
inputs' indexes already hold, each ranked by the live rows of its cell,
instead of from scratch as the paper's rebuild does (DESIGN.md §9,
"k-means training"); an input index no one holds in memory is read
from the store, and that read is priced into the merge.
The paper also auto-tunes them by measurement during background
compaction; this reproduction does not, because a choice made by timing
searches would make the stored index depend on the host's speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.catalog.catalog import TableEntry
from repro.ingest.buildcost import build_segment_index
from repro.observe.events import emit_event
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.lsm import SegmentManager
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment
from repro.vindex.api import IndexFamily, VectorIndex
from repro.vindex.ivf import cell_seeds
from repro.vindex.kmeans import Seeds
from repro.vindex.registry import deserialize_index, index_class


def _nothing_resident(index_key: str) -> Optional[VectorIndex]:
    """A compactor's default: no index is held in memory."""
    return None


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
    # The index object stored under a key, when this process already
    # holds it (the table's built and loaded indexes); None otherwise.
    resident_index: Callable[[str], Optional[VectorIndex]] = _nothing_resident

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

    def _seeds(
        self, group: List[Segment], alive_masks: List[np.ndarray], charged: float
    ) -> Tuple[Optional[Seeds], float]:
        """The trained centroids ``group``'s same-type IVF indexes hold,
        each with the live rows of its cell, in input order; None when no
        input offers any.  An index neither the writer nor a read holds
        is read from the store: returns ``charged`` plus those reads."""
        index_type = self.entry.schema.index_spec.index_type
        if index_class(index_type).family is not IndexFamily.IVF:
            return None, charged
        offered: List[Seeds] = []
        for segment, alive in zip(group, alive_masks):
            index_key = self.manager.index_key(segment.segment_id)
            if index_key is None or not alive.any():
                continue
            index = self.resident_index(index_key)
            if index is None:
                payload = self.store.get(index_key)
                charged += self.cost.object_store_read(len(payload))
                index = deserialize_index(payload)
            if index.index_type == index_type:
                offered.append(cell_seeds(index, alive))
        if not offered:
            return None, charged
        return Seeds(*map(np.concatenate, zip(*offered))), charged

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
        alive_masks: List[np.ndarray] = []
        rows_in = 0
        dead = 0
        for segment in group:
            alive_masks.append(self.manager.bitmap(segment.segment_id).alive_mask())
            alive = np.flatnonzero(alive_masks[-1])
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
                seeds, simulated = self._seeds(group, alive_masks, simulated)
                _, _, index_key, simulated = build_segment_index(
                    merged, schema.index_spec, self.store, self.cost, simulated, seeds
                )

            # Swap inputs for the merged segment in ONE manifest commit:
            # concurrent readers observe either the whole group or its
            # replacement, never a half-merged table.  Inputs are only
            # *logically* dropped here: their payloads go at the first
            # checkpoint after no snapshot holds them (the durability
            # manager's sweep).
            with self.manager.transaction() as edit:
                for segment in group:
                    edit.drop(segment.segment_id)
                edit.commit(merged, index_key=index_key)
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
