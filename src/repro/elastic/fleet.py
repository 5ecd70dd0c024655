"""The warehouse fleet: concurrent virtual warehouses over one store.

A :class:`WarehouseFleet` owns N :class:`VirtualWarehouse` members that
share one simulated clock and one object store.  Each member schedules
its segments on its own ring, and its workers keep their own memory and
local-disk tiers; nothing is cached or routed fleet-wide below the
member, so a member that misses both tiers reads the object store.

Membership follows the paper's masking protocol:

* **unmasked join** — the warehouse enters the router ring immediately
  with stone-cold caches; routed queries brute-force until background
  loads complete (the cliff Fig 18 measures);
* **masked join** — a :class:`~repro.elastic.preloader.BackgroundPreloader`
  warms the warehouse's hierarchical cache off the query path first; the
  warehouse sits in :attr:`pending` until the warm-up's simulated cost
  has elapsed, then :meth:`poll` admits it to the ring warm.

A member left with no live workers stays on the ring but is passed over
at routing (:meth:`WarehouseFleet.route`) until it has workers again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.stats import SegmentAccessStats
from repro.cluster.warehouse import VirtualWarehouse, WarehouseConfig
from repro.errors import NoWorkersError
from repro.observe.events import emit_event
from repro.observe.trace import Tracer
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.objectstore import ObjectStore

from repro.elastic.router import FleetRouter

NAME_PREFIX = "fleet-vw"
# Join mode of a scale-out that names none (the autoscaler's default).
MASKED_JOINS = True


@dataclass
class FleetConfig:
    """Fleet behaviour knobs."""

    warehouses: int = 2
    workers_per_warehouse: int = 2
    warehouse: Optional[WarehouseConfig] = None


class WarehouseFleet:
    """Multiple concurrent virtual warehouses behind one router."""

    def __init__(
        self,
        clock: SimulatedClock,
        cost: DeviceCostModel,
        store: ObjectStore,
        tracer: Tracer,
        metrics: Optional[MetricRegistry] = None,
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.clock = clock
        self.cost = cost
        self.store = store
        self.metrics = metrics or MetricRegistry()
        self.tracer = tracer
        self.config = config or FleetConfig()
        self.router = FleetRouter()
        self.members: Dict[str, VirtualWarehouse] = {}
        # name -> simulated time its masked warm-up completes.
        self.pending: Dict[str, float] = {}
        # Access stats of warehouses that have since been scaled in —
        # heat observed before a scale event still guides later preloads.
        self._retired_stats = SegmentAccessStats()
        self._next_seq = 0
        for _ in range(max(0, self.config.warehouses)):
            self.add_warehouse(masked=False)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Admitted (routable) warehouses."""
        return len(self.router)

    @property
    def warehouse_names(self) -> List[str]:
        """Every member, admitted or pending, sorted."""
        return sorted(self.members)

    def warehouse(self, name: str) -> VirtualWarehouse:
        return self.members[name]

    def add_warehouse(
        self, masked: Optional[bool] = None, preloader=None
    ) -> str:
        """Scale out by one warehouse; returns its name.

        ``masked=True`` runs ``preloader.warm`` (an
        :class:`~repro.elastic.preloader.BackgroundPreloader`; required
        in that case) and keeps the warehouse off the router ring until
        the warm-up's simulated cost has elapsed — foreground queries
        never see its cold caches.  ``masked=False`` admits immediately.
        """
        if masked is None:
            masked = MASKED_JOINS
        name = f"{NAME_PREFIX}{self._next_seq}"
        self._next_seq += 1
        warehouse = VirtualWarehouse(
            name, self.clock, self.cost, self.store,
            metrics=self.metrics, config=self.config.warehouse,
            tracer=self.tracer,
        )
        for _ in range(self.config.workers_per_warehouse):
            warehouse.add_worker()
        self.members[name] = warehouse
        self.metrics.incr("fleet.scale_outs")
        if masked and preloader is not None:
            loaded, warm_cost_s = preloader.warm(warehouse)
            ready_at = self.clock.now + warm_cost_s
            self.pending[name] = ready_at
            emit_event(
                self.metrics, "fleet.scale_out", warehouse=name,
                masked=True, preloaded=loaded,
                warm_cost_s=round(warm_cost_s, 6), ready_at=ready_at,
            )
        else:
            self.router.admit(name)
            emit_event(
                self.metrics, "fleet.scale_out", warehouse=name,
                masked=False, preloaded=0,
            )
        return name

    def poll(self) -> List[str]:
        """Admit pending warehouses whose warm-up has completed."""
        now = self.clock.now
        ready = sorted(
            name for name, ready_at in self.pending.items() if ready_at <= now
        )
        for name in ready:
            del self.pending[name]
            self.router.admit(name)
            self.metrics.incr("fleet.warehouses_ready")
            emit_event(
                self.metrics, "fleet.warehouse_ready", warehouse=name,
            )
        return ready

    def remove_warehouse(self, name: Optional[str] = None) -> Optional[str]:
        """Scale in one warehouse (newest admitted member by default).

        The member leaves the ring first (no new routes), then its
        workers are drained; its access stats are folded into the
        retired pool so observed heat keeps guiding future preloads.
        Refuses to remove the last admitted warehouse.
        """
        admitted = [m for m in self.router.members if m in self.members]
        if name is None:
            candidates = sorted(admitted)
            if len(candidates) <= 1:
                return None
            name = candidates[-1]
        elif name in admitted and len(admitted) <= 1:
            return None
        warehouse = self.members.pop(name, None)
        if warehouse is None:
            return None
        self.router.evict(name)
        self.pending.pop(name, None)
        self._retired_stats.merge_from([warehouse.access_stats])
        for worker_id in list(warehouse.workers):
            warehouse.remove_worker(worker_id)
        self.metrics.incr("fleet.scale_ins")
        emit_event(self.metrics, "fleet.scale_in", warehouse=name)
        return name

    # ------------------------------------------------------------------
    # Routing + execution
    # ------------------------------------------------------------------
    def route(
        self, tenant: str = "default", lane: str = "interactive"
    ) -> VirtualWarehouse:
        """The warehouse serving this (tenant, lane) right now.

        Polls pending members first, so a warm warehouse starts taking
        traffic on the first query after its ready time.

        Failover: when the routed member has no live workers, the query
        goes to the member the key would map to were every worker-less
        member evicted (counted in ``fleet.failovers``).  Only their
        keys move, and a member that gets workers back serves its keys
        again on the next query, with no re-admission.

        Raises
        ------
        NoWorkersError
            When no admitted member has live workers.
        """
        self.poll()
        warehouse = self.members[self.router.route(tenant, lane)]
        if warehouse.worker_count:
            return warehouse
        down = {
            name for name in self.router.members
            if not self.members[name].worker_count
        }
        if len(down) == self.size:
            raise NoWorkersError("no admitted warehouse has workers")
        self.metrics.incr("fleet.failovers")
        return self.members[self.router.route(tenant, lane, skip=down)]

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def retire_segment(self, segment_id: str, index_key: Optional[str]) -> None:
        """:meth:`VirtualWarehouse.retire_segment` on every member
        (admitted or pending), and the stats retired members left
        behind."""
        for warehouse in self.members.values():
            warehouse.retire_segment(segment_id, index_key)
        self._retired_stats.forget(segment_id)

    def preload_all(self, segment_ids, index_key_of) -> int:
        """Warm every member (initial fleet warm-up before a workload)."""
        loaded = 0
        for warehouse in self.members.values():
            loaded += warehouse.preload_indexes(list(segment_ids), index_key_of)
        return loaded

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def access_stats(self) -> SegmentAccessStats:
        """Fleet-wide per-segment stats (live members + retired ones)."""
        merged = SegmentAccessStats()
        merged.merge_from([self._retired_stats])
        merged.merge_from(w.access_stats for w in self.members.values())
        return merged

    def hot_segments(self) -> List[str]:
        """Every accessed segment fleet-wide, hottest first (the
        preloader's ranking)."""
        return self.access_stats().hot_segments()

    def export_metrics(self) -> Dict:
        """JSON-safe fleet snapshot."""
        stats = self.access_stats()
        return {
            "size": self.size,
            "pending": {
                name: ready_at for name, ready_at in sorted(self.pending.items())
            },
            "members": {
                name: warehouse.export_metrics()
                for name, warehouse in sorted(self.members.items())
            },
            "router": {"members": self.router.members, "routed": self.router.routed},
            "hit_rate": stats.hit_rate(),
        }
