"""FleetBlendHouse: the SQL engine fronted by an elastic warehouse fleet.

Ingest and planning stay in the engine's own process (the dedicated
write warehouse of the paper's read/write separation); every SELECT is
routed by ``(tenant, lane)`` to one member of a
:class:`~repro.elastic.fleet.WarehouseFleet` and executes on that
warehouse's workers.  The only override of the SELECT path is
:meth:`FleetBlendHouse._backend`, so the inherited ``select_stages``
routes too — on its first step, after the statement parses — and a
:class:`~repro.serving.frontend.ServingFrontend` can front the whole
fleet: staged queries route across warehouses instead of one frontend
pinning one engine.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.warehouse import VirtualWarehouse
from repro.core.database import BlendHouse, EngineSettings
from repro.durability.manager import DurabilityConfig
from repro.elastic.autoscaler import AutoscalerPolicy, FleetAutoscaler
from repro.elastic.fleet import FleetConfig, WarehouseFleet
from repro.elastic.preloader import BackgroundPreloader
from repro.executor.pipeline import QueryResult
from repro.ingest.writer import IngestConfig
from repro.observe.slo import SLOMonitor
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.storage.objectstore import ObjectStore


class FleetBlendHouse(BlendHouse):
    """BlendHouse with SELECTs spread across an elastic warehouse fleet."""

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[DeviceCostModel] = None,
        ingest_config: Optional[IngestConfig] = None,
        settings: Optional[EngineSettings] = None,
        fleet_config: Optional[FleetConfig] = None,
        store: Optional[ObjectStore] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        super().__init__(
            clock=clock, cost_model=cost_model, ingest_config=ingest_config,
            settings=settings, store=store, durability=durability,
        )
        self.fleet = WarehouseFleet(
            self.clock, self.cost, self.store,
            metrics=self.metrics, tracer=self.tracer, config=fleet_config,
        )
        self.preloader = BackgroundPreloader(self.fleet, self)
        self.autoscaler: Optional[FleetAutoscaler] = None

    @property
    def db(self) -> "FleetBlendHouse":
        """This engine, under the name the benchmark's fleet workload
        (``ledger/workloads.py``) reads it by; no other caller uses it."""
        return self

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    def attach_autoscaler(
        self, monitor: SLOMonitor, policy: AutoscalerPolicy
    ) -> FleetAutoscaler:
        """Wire an SLO monitor + policy into the fleet's control loop.

        The autoscaler ticks after every query executed through
        :meth:`execute`; serving-tier deployments tick it from their own
        loop (the frontend feeds the same monitor via ``frontend.slo``).
        """
        self.autoscaler = FleetAutoscaler(
            self.fleet, monitor, policy, preloader=self.preloader
        )
        return self.autoscaler

    def scale_out(self, masked: Optional[bool] = None) -> str:
        """Manually add one warehouse (masked by fleet default)."""
        return self.fleet.add_warehouse(masked=masked, preloader=self.preloader)

    def scale_in(self, name: Optional[str] = None) -> Optional[str]:
        """Manually remove one warehouse."""
        return self.fleet.remove_warehouse(name)

    def preload(self, table: str) -> int:
        """Warm every fleet member for ``table`` (initial preload)."""
        runtime = self.table(table)
        return self.fleet.preload_all(
            runtime.manager.segment_ids(), runtime.manager.index_key
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _backend(self, tenant: str, lane: str) -> VirtualWarehouse:
        """Route one query: the serving member's workers scan it."""
        warehouse = self.fleet.route(tenant, lane)
        self.metrics.incr("fleet.queries")
        self.metrics.incr(f"fleet.served_by.{warehouse.name}")
        return warehouse

    def _release(self, segment_id: str, index_key: Optional[str]) -> None:
        self.fleet.retire_segment(segment_id, index_key)

    def execute(
        self, sql: str, tenant: str = "default", lane: str = "interactive"
    ) -> Any:
        """Execute SQL; SELECTs route through the fleet by (tenant, lane)
        and tick the autoscaler.  Runs the shared statement path, not
        :meth:`BlendHouse.execute`: the benchmark's traced fleet run
        records a statement as ``elastic.execute`` and no ``core.execute``."""
        start = self.clock.now
        result = self._execute(sql, tenant, lane)
        if self.autoscaler is not None and isinstance(result, QueryResult):
            self.autoscaler.observe_latency(lane, self.clock.elapsed_since(start))
            self.autoscaler.tick()
        return result
