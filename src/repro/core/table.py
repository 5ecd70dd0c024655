"""Per-table runtime: segments, write path, compaction, index access.

Bundles everything the engine keeps per table beyond catalog metadata.
The index resolution here is the *local* (single-process) path: indexes
built by this process are served from memory, anything else is loaded
from the object store and memoized.  The cluster layer replaces this
with worker-local hierarchical caches plus vector search serving.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.catalog.catalog import TableEntry
from repro.errors import ObjectNotFoundError
from repro.ingest.writer import IngestConfig, SegmentWriter
from repro.observe.trace import Tracer
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.compaction import Compactor
from repro.storage.lsm import SegmentManager
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment
from repro.vindex.api import VectorIndex
from repro.vindex.registry import deserialize_index


class TableRuntime:
    """Live state for one table."""

    def __init__(
        self,
        entry: TableEntry,
        store: ObjectStore,
        clock: SimulatedClock,
        cost: DeviceCostModel,
        metrics: MetricRegistry,
        tracer: Tracer,
        ingest_config: Optional[IngestConfig] = None,
    ) -> None:
        self.entry = entry
        self.store = store
        self.clock = clock
        self.cost = cost
        self.metrics = metrics
        self.tracer = tracer
        self.manager = SegmentManager(table=entry.schema.name, metrics=metrics)
        self.writer = SegmentWriter(
            entry, self.manager, store, clock,
            cost_model=cost, metrics=metrics, config=ingest_config,
        )
        self.compactor = Compactor(
            entry=entry, manager=self.manager, store=store, clock=clock,
            cost=cost, metrics=metrics, resident_index=self._resident_index,
        )
        self._loaded_indexes: Dict[str, VectorIndex] = {}

    # ------------------------------------------------------------------
    # Index resolution (local mode)
    # ------------------------------------------------------------------
    def forget_index(self, index_key: Optional[str]) -> None:
        """Drop a retired index this process built or loaded."""
        if index_key is not None:
            self._loaded_indexes.pop(index_key, None)
            self.writer.built_indexes.pop(index_key, None)

    def _resident_index(self, index_key: str) -> Optional[VectorIndex]:
        """The index under ``index_key`` if this process holds it: built
        by the writer or memoized by a load."""
        built = self.writer.built_indexes.get(index_key)
        return built if built is not None else self._loaded_indexes.get(index_key)

    def snapshot_resolver(self, snapshot):
        """An index resolver bound to one pinned snapshot: index keys come
        from the snapshot's manifest, so a query keeps resolving the exact
        index versions it was planned against even while compaction
        rewrites the current view."""

        def resolve(segment: Segment) -> Optional[VectorIndex]:
            return self.resolve_index_at(
                segment, snapshot.index_key(segment.segment_id)
            )

        return resolve

    def resolve_index_at(
        self, segment: Segment, index_key: Optional[str]
    ) -> Optional[VectorIndex]:
        """The vector index stored under ``index_key``, or None.

        Looks in the writer's freshly built set first, then the memoized
        loads, finally the object store (charging the cold-read cost).
        """
        if index_key is None:
            self.tracer.annotate("tier", "none")
            return None
        built = self.writer.built_indexes.get(index_key)
        if built is not None:
            self.tracer.annotate("tier", "built")
            return built
        cached = self._loaded_indexes.get(index_key)
        if cached is not None:
            self.tracer.annotate("tier", "memory")
            return cached
        try:
            payload = self.store.get(index_key)
        except ObjectNotFoundError:
            self.tracer.annotate("tier", "none")
            return None
        index = deserialize_index(payload)
        self._attach_segment_hooks(index, segment)
        self._loaded_indexes[index_key] = index
        self.metrics.incr("table.index_cold_loads")
        self.tracer.annotate("tier", "remote")
        return index

    def _attach_segment_hooks(self, index: VectorIndex, segment: Segment) -> None:
        """Re-wire non-persisted hooks after deserialization."""
        index.set_refiner(segment.vectors_at)
        index.set_io_charger(lambda nbytes: self.clock.advance(self.cost.disk_read(nbytes)))
