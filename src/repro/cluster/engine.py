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

from repro.cluster.warehouse import (
    VirtualWarehouse,
    WarehouseBackend,
    WarehouseConfig,
)
from repro.core.database import BlendHouse, EngineSettings, SelectStage
from repro.executor.cancel import CancelToken
from repro.ingest.writer import IngestConfig
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.sqlparser.ast_nodes import Insert


class SeparatedEngine:
    """What the engines with a separate read side share.

    ``self.db`` is the core :class:`BlendHouse`: it plans, ingests and
    owns the SELECT lifecycle.  A subclass supplies the warehouse that
    scans a query (:meth:`_backend`) and hooks each table's compactor to
    its caches (:meth:`_wire_table`); SQL dispatch, ingest and the
    surface a :class:`~repro.serving.frontend.ServingFrontend` drives
    are here.
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

    def _backend(self, tenant: str, lane: str) -> WarehouseBackend:
        """The warehouse that scans this (tenant, lane)'s query."""
        raise NotImplementedError

    def _wire_table(self, table: str) -> None:
        """Idempotently hook ``table``'s retired indexes to the read side."""
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
        report = self.db.insert_rows(table, rows)
        self._wire_table(table)
        return report

    def insert_columns(self, table: str, scalar_columns, vectors):
        report = self.db.insert_columns(table, scalar_columns, vectors)
        self._wire_table(table)
        return report

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, tenant: str = "default", lane: str = "interactive"
    ) -> Any:
        """Execute SQL: SELECTs scan on the read side, everything else
        goes through the write-side engine."""
        statement, result = self.db.run_statement(
            sql, route=lambda: self._backend(tenant, lane)
        )
        if isinstance(statement, Insert):
            self._wire_table(statement.table)
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
    """BlendHouse with query execution spread over a read warehouse."""

    def __init__(
        self,
        read_workers: int = 2,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[DeviceCostModel] = None,
        ingest_config: Optional[IngestConfig] = None,
        warehouse_config: Optional[WarehouseConfig] = None,
        settings: Optional[EngineSettings] = None,
        replicas: int = 1,
    ) -> None:
        super().__init__(clock, cost_model, ingest_config, settings)
        if replicas > 1:
            # Critical-workload mode (paper §II-E): redundant read VWs
            # behind one query interface with transparent failover.
            from repro.cluster.replicas import ReplicatedWarehouse

            self.read_vw = ReplicatedWarehouse(
                "read-vw", self.db.clock, self.db.cost, self.db.store,
                replicas=replicas, workers_per_replica=read_workers,
                metrics=self.db.metrics, config=warehouse_config,
                tracer=self.db.tracer,
            )
        else:
            self.read_vw = VirtualWarehouse(
                "read-vw", self.db.clock, self.db.cost, self.db.store,
                metrics=self.db.metrics, config=warehouse_config,
                tracer=self.db.tracer,
            )
            for _ in range(read_workers):
                self.read_vw.add_worker()
        self._read_backend = WarehouseBackend(self.read_vw, self.db)

    def _backend(self, tenant: str, lane: str) -> WarehouseBackend:
        return self._read_backend

    def _wire_table(self, table: str) -> None:
        runtime = self.db.table(table)
        if not getattr(runtime, "_cluster_invalidation_wired", False):
            runtime.compactor.on_retire(
                lambda _sid, index_key: self.read_vw.invalidate_index(index_key)
            )
            runtime._cluster_invalidation_wired = True

    def preload(self, table: str) -> int:
        """Preload every segment's index into its scheduled worker."""
        runtime = self.db.table(table)
        return self.read_vw.preload_indexes(
            runtime.manager.segment_ids(), runtime.manager.index_key
        )

    def scale_to(self, workers: int) -> None:
        """Scale the read warehouse to ``workers`` nodes.

        In replicated mode every replica scales to the same size.
        """
        self.read_vw.scale_to(workers)
