"""The clustered engine: BlendHouse planning over warehouse execution.

Read/write separation (paper §II-A): ingestion and index building run in
the core engine (standing in for a dedicated *write* virtual warehouse),
while SELECTs execute on a *read* virtual warehouse whose stateless
workers pull indexes from the shared object store.  Both sides share one
simulated clock, one object store, and one catalog, so experiments can
scale the read side, fail workers, or co-locate writes without touching
the planning stack.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.cluster.warehouse import VirtualWarehouse, WarehouseConfig
from repro.core.database import BlendHouse, EngineSettings, SelectStage
from repro.executor.cancel import CancelToken
from repro.ingest.writer import IngestConfig
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel


class SeparatedEngine:
    """What the engines with a separate read side share.

    ``self.db`` is the core :class:`BlendHouse`: it plans, ingests and
    owns the SELECT lifecycle.  A subclass supplies the warehouse that
    scans a query (:meth:`_backend`) and adds the hook that drops a
    retired index from its workers' caches to ``db.retire_hooks``; SQL
    dispatch, ingest and the surface a
    :class:`~repro.serving.frontend.ServingFrontend` drives are here.
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock],
        cost_model: Optional[DeviceCostModel],
        ingest_config: Optional[IngestConfig],
        settings: Optional[EngineSettings],
    ) -> None:
        self.db = BlendHouse(
            clock=clock, cost_model=cost_model,
            ingest_config=ingest_config, settings=settings,
        )

    def _backend(self, tenant: str, lane: str) -> VirtualWarehouse:
        """The warehouse that scans this (tenant, lane)'s query."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Passthroughs to the core engine
    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimulatedClock:
        return self.db.clock

    @property
    def settings(self) -> EngineSettings:
        return self.db.settings

    @property
    def metrics(self):
        return self.db.metrics

    @property
    def tracer(self):
        return self.db.tracer

    def table(self, name: str):
        return self.db.table(name)

    def export_metrics(self):
        return self.db.export_metrics()

    def offer_flight(self, *args: Any, **kwargs: Any) -> None:
        self.db.offer_flight(*args, **kwargs)

    # ------------------------------------------------------------------
    # Ingest (write side)
    # ------------------------------------------------------------------
    def insert_rows(self, table: str, rows: List[Dict[str, Any]]):
        return self.db.insert_rows(table, rows)

    def insert_columns(self, table: str, scalar_columns, vectors):
        return self.db.insert_columns(table, scalar_columns, vectors)

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, tenant: str = "default", lane: str = "interactive"
    ) -> Any:
        """Execute SQL: SELECTs scan on the read side, everything else
        goes through the write-side engine."""
        _, result = self.db.run_statement(
            sql, route=lambda: self._backend(tenant, lane)
        )
        return result

    def select_stages(
        self, sql: str, cancel: Optional[CancelToken] = None,
        tenant: str = "default", lane: str = "interactive",
    ) -> Iterator[SelectStage]:
        """:meth:`BlendHouse.select_stages` scanning on the read side; the
        finish stage's ``flight["warehouse"]`` names who served it."""
        return self.db.select_stages(
            sql, cancel, tenant, lane, backend=self._backend(tenant, lane)
        )


class ClusteredBlendHouse(SeparatedEngine):
    """BlendHouse with query execution spread over a read warehouse.

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
    ) -> None:
        super().__init__(clock, cost_model, ingest_config, settings)
        self.read_vw = VirtualWarehouse(
            "read-vw", self.db.clock, self.db.cost, self.db.store,
            metrics=self.db.metrics, config=warehouse_config,
            tracer=self.db.tracer,
        )
        for _ in range(read_workers):
            self.read_vw.add_worker()
        self.db.retire_hooks.append(
            lambda _sid, index_key: self.read_vw.invalidate_index(index_key)
        )

    def _backend(self, tenant: str, lane: str) -> VirtualWarehouse:
        return self.read_vw

    def preload(self, table: str) -> int:
        """Preload every segment's index into its scheduled worker."""
        runtime = self.db.table(table)
        return self.read_vw.preload_indexes(
            runtime.manager.segment_ids(), runtime.manager.index_key
        )

    def scale_to(self, workers: int) -> None:
        """Scale the read warehouse to ``workers`` nodes."""
        self.read_vw.scale_to(workers)
