"""Replicated warehouses for critical workloads (paper §II-E).

The paper's fault-tolerance story ends with: "supports multiple VW
replicas for critical workloads to enhance availability through
redundancy".  A :class:`ReplicatedWarehouse` fronts N independent
virtual warehouses over the same object store (statelessness makes
replicas cheap — no data copies, only caches):

* **routing** — ``primary`` sends every query to the first healthy
  replica; ``round_robin`` spreads load across healthy replicas;
* **failover** — a replica whose workers are all gone (or that exhausts
  its query-level retries) is skipped; the query transparently runs on
  the next replica;
* **health** — a replica rejoins the rotation as soon as it has live
  workers again.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.stats import SegmentAccessStats
from repro.cluster.warehouse import VirtualWarehouse, WarehouseConfig
from repro.errors import NoWorkersError, WorkerUnavailableError
from repro.executor.pipeline import QueryResult
from repro.observe.trace import Tracer
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.objectstore import ObjectStore

ROUTING_POLICIES = ("primary", "round_robin")


@dataclass
class ReplicaStatus:
    """Health snapshot of one replica."""

    name: str
    workers: int
    healthy: bool


class ReplicatedWarehouse:
    """N redundant virtual warehouses behind one query interface."""

    def __init__(
        self,
        name: str,
        clock: SimulatedClock,
        cost: DeviceCostModel,
        store: ObjectStore,
        replicas: int = 2,
        workers_per_replica: int = 2,
        metrics: Optional[MetricRegistry] = None,
        config: Optional[WarehouseConfig] = None,
        routing: str = "primary",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        if routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {routing!r}")
        self.name = name
        self.metrics = metrics or MetricRegistry()
        self.routing = routing
        # One routing directory spans all replicas; it is safe to share
        # because entries are keyed per (segment, manifest, warehouse) —
        # each replica is its own warehouse id.
        self.directory: OrderedDict = OrderedDict()
        self.replicas: List[VirtualWarehouse] = []
        for i in range(replicas):
            replica = VirtualWarehouse(
                f"{name}-r{i}", clock, cost, store,
                metrics=self.metrics, config=config, tracer=tracer,
                directory=self.directory,
            )
            for _ in range(workers_per_replica):
                replica.add_worker()
            self.replicas.append(replica)
        self._next = 0

    # ------------------------------------------------------------------
    # Health / topology
    # ------------------------------------------------------------------
    def status(self) -> List[ReplicaStatus]:
        """Per-replica health snapshot."""
        return [
            ReplicaStatus(
                name=replica.name,
                workers=replica.worker_count,
                healthy=replica.worker_count > 0,
            )
            for replica in self.replicas
        ]

    def healthy_replicas(self) -> List[VirtualWarehouse]:
        """Replicas currently able to serve."""
        return [replica for replica in self.replicas if replica.worker_count > 0]

    def replica(self, index: int) -> VirtualWarehouse:
        """Direct access to one replica (tests, fault injection)."""
        return self.replicas[index]

    def scale_to(self, workers: int) -> None:
        """Scale every replica to ``workers`` nodes."""
        for replica in self.replicas:
            replica.scale_to(workers)

    def preload_indexes(self, segment_ids, index_key_of) -> int:
        """Preload every replica's caches (each has its own scheduler).

        Per-segment preload counters land in each replica's
        ``access_stats`` (see :meth:`VirtualWarehouse.preload_indexes`),
        so :meth:`access_stats` below reports fleet-visible warmth even
        before the first query runs.
        """
        total = 0
        for replica in self.replicas:
            total += replica.preload_indexes(segment_ids, index_key_of)
        return total

    def access_stats(self) -> SegmentAccessStats:
        """Per-segment hit/miss stats aggregated across replicas."""
        merged = SegmentAccessStats()
        merged.merge_from(replica.access_stats for replica in self.replicas)
        return merged

    def export_metrics(self) -> Dict:
        """JSON-safe snapshot: per-replica detail plus merged stats."""
        merged = self.access_stats()
        return {
            "name": self.name,
            "routing": self.routing,
            "replicas": [replica.export_metrics() for replica in self.replicas],
            "hit_rate": merged.hit_rate(),
            "segments": merged.snapshot(),
        }

    def invalidate_index(self, index_key: Optional[str]) -> None:
        """Drop a retired index from every replica."""
        for replica in self.replicas:
            replica.invalidate_index(index_key)

    # ------------------------------------------------------------------
    # Query routing
    # ------------------------------------------------------------------
    def _rotation(self) -> List[VirtualWarehouse]:
        healthy = self.healthy_replicas()
        if not healthy:
            return []
        if self.routing == "primary":
            return healthy
        # round_robin: rotate the starting replica per query.
        start = self._next % len(healthy)
        self._next += 1
        return healthy[start:] + healthy[:start]

    def _on_first_healthy(self, call):
        """``call(replica)`` on the rotation, failing over as needed.

        Raises
        ------
        NoWorkersError
            Only when *every* replica is down or failing.
        """
        last_error: Optional[Exception] = None
        for replica in self._rotation():
            try:
                outcome = call(replica)
            except (NoWorkersError, WorkerUnavailableError) as error:
                last_error = error
                self.metrics.incr("replicas.failovers")
                continue
            self.metrics.incr(f"replicas.served_by.{replica.name}")
            return outcome
        if last_error is not None:
            raise NoWorkersError(
                f"all replicas of {self.name!r} failed; last error: {last_error}"
            )
        raise NoWorkersError(f"replicated warehouse {self.name!r} has no live replicas")

    def execute_query(self, *args, **kwargs) -> QueryResult:
        """:meth:`VirtualWarehouse.execute_query` with replica failover."""
        return self._on_first_healthy(
            lambda replica: replica.execute_query(*args, **kwargs)
        )

    def scan(self, *args, **kwargs):
        """:meth:`VirtualWarehouse.scan` with replica failover."""
        return self._on_first_healthy(lambda replica: replica.scan(*args, **kwargs))

    def merge_partials(self, *args, **kwargs) -> QueryResult:
        """Merging touches no worker state, so any replica can do it."""
        return self.replicas[0].merge_partials(*args, **kwargs)
