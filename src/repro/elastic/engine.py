"""FleetBlendHouse: the SQL engine fronted by an elastic warehouse fleet.

Write-side planning stays in the core :class:`BlendHouse` (the dedicated
write warehouse of the paper's read/write separation); every SELECT is
routed by ``(tenant, lane)`` to one member of a
:class:`~repro.elastic.fleet.WarehouseFleet` and executes on that
warehouse's workers.  ``select_stages`` is the core engine's staged
SELECT with the routed warehouse as its scan backend, so a
:class:`~repro.serving.frontend.ServingFrontend` can front the whole
fleet — staged queries route across warehouses instead of one frontend
pinning one engine.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.engine import SeparatedEngine
from repro.cluster.warehouse import VirtualWarehouse
from repro.core.database import EngineSettings
from repro.elastic.autoscaler import AutoscalerPolicy, FleetAutoscaler
from repro.elastic.fleet import FleetConfig, WarehouseFleet
from repro.elastic.preloader import BackgroundPreloader
from repro.executor.pipeline import QueryResult
from repro.ingest.writer import IngestConfig
from repro.observe.slo import SLOMonitor
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel


class FleetBlendHouse(SeparatedEngine):
    """BlendHouse with SELECTs spread across an elastic warehouse fleet."""

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[DeviceCostModel] = None,
        ingest_config: Optional[IngestConfig] = None,
        settings: Optional[EngineSettings] = None,
        fleet_config: Optional[FleetConfig] = None,
    ) -> None:
        super().__init__(clock, cost_model, ingest_config, settings)
        self.fleet = WarehouseFleet(
            self.db.clock, self.db.cost, self.db.store,
            metrics=self.db.metrics, tracer=self.db.tracer,
            config=fleet_config,
        )
        self.db.retire_hooks.append(
            lambda _sid, index_key: self.fleet.invalidate_index(index_key)
        )
        self.preloader = BackgroundPreloader(self.fleet, self.db)
        self.autoscaler: Optional[FleetAutoscaler] = None

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
        runtime = self.db.table(table)
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

    def execute(
        self, sql: str, tenant: str = "default", lane: str = "interactive"
    ) -> Any:
        """Execute SQL; SELECTs route through the fleet by (tenant, lane)
        and tick the autoscaler."""
        start = self.db.clock.now
        result = super().execute(sql, tenant, lane)
        if self.autoscaler is not None and isinstance(result, QueryResult):
            self.autoscaler.observe_latency(
                lane, self.db.clock.elapsed_since(start)
            )
            self.autoscaler.tick()
        return result
