"""The clustered engine: BlendHouse planning over warehouse execution.

Read/write separation (paper §II-A): ingestion and index building run in
the engine's own process (standing in for a dedicated *write* virtual
warehouse), while SELECTs execute on a *read* virtual warehouse whose
stateless workers pull indexes from the shared object store.  Both sides
share one simulated clock, one object store, and one catalog, so
experiments can scale the read side, fail workers, or co-locate writes
without touching the planning stack.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.warehouse import VirtualWarehouse, WarehouseConfig
from repro.core.database import BlendHouse, EngineSettings
from repro.durability.manager import DurabilityConfig
from repro.ingest.writer import IngestConfig
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.storage.objectstore import ObjectStore


class ClusteredBlendHouse(BlendHouse):
    """BlendHouse whose SELECTs scan on one read warehouse.

    One warehouse, not a one-member fleet: fleet members name their
    workers after the member, which moves every segment's ring placement
    and with it the paper figures' cache numbers (DESIGN.md §13).
    """

    def __init__(
        self,
        read_workers: int = 2,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[DeviceCostModel] = None,
        ingest_config: Optional[IngestConfig] = None,
        warehouse_config: Optional[WarehouseConfig] = None,
        settings: Optional[EngineSettings] = None,
        store: Optional[ObjectStore] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        super().__init__(
            clock=clock, cost_model=cost_model, ingest_config=ingest_config,
            settings=settings, store=store, durability=durability,
        )
        self.read_vw = VirtualWarehouse(
            "read-vw", self.clock, self.cost, self.store,
            metrics=self.metrics, config=warehouse_config, tracer=self.tracer,
        )
        for _ in range(read_workers):
            self.read_vw.add_worker()

    def _backend(self, tenant: str, lane: str) -> VirtualWarehouse:
        return self.read_vw

    def _release(self, segment_id: str, index_key: Optional[str]) -> None:
        self.read_vw.retire_segment(segment_id, index_key)

    def preload(self, table: str) -> int:
        """Preload every segment's index into its scheduled worker."""
        runtime = self.table(table)
        return self.read_vw.preload_indexes(
            runtime.manager.segment_ids(), runtime.manager.index_key
        )

    def scale_to(self, workers: int) -> None:
        """Scale the read warehouse to ``workers`` nodes."""
        self.read_vw.scale_to(workers)
