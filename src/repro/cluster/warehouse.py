"""Virtual warehouses: elastic pools of stateless workers.

A :class:`VirtualWarehouse` is a scan backend of the SELECT lifecycle
(:meth:`repro.core.database.BlendHouse.select_stages`): segments are
assigned by the consistent-hash scheduler, each worker runs the physical
plans of the query (or batch) on its share, and a wave's time is the
*makespan* — the maximum per-worker charged cost — modelling parallel
execution on a single simulated timeline.

Warehouses also model:

* **Scaling** (Fig 18): new workers start with cold caches; vector
  search serving + background loads keep them productive immediately.
* **Read/write interference** (Fig 12): a background write load on the
  *same* warehouse inflates query makespans by ``1 / (1 - load)``;
  dedicated warehouses keep the load at zero.
* **Failures** (§II-E): failed workers leave the ring; queries retry on
  the surviving topology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Dict, List, Optional

from repro.cluster.rpc import RpcFabric
from repro.cluster.scheduler import SegmentScheduler
from repro.cluster.serving import RemoteSearchProvider
from repro.cluster.stats import SegmentAccessStats
from repro.cluster.worker import Worker
from repro.errors import NoWorkersError, WorkerUnavailableError
from repro.executor.cancel import CancelToken
from repro.observe.trace import Tracer
from repro.executor.parallel import GroupScan
from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    QueryResult,
    merge_and_project,
)
from repro.planner.optimizer import PhysicalPlan
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.manifest import Snapshot
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment

IndexKeyLookup = Callable[[str], Optional[str]]

# Query-level retries on a refreshed topology after a worker dies (§II-E).
MAX_QUERY_RETRIES = 1


@dataclass
class WarehouseConfig:
    """Warehouse behaviour knobs."""

    # Vector search serving (Fig 4): a cold worker asks the segment's
    # previous owner to search for it (the ablation of Fig 11 turns it off).
    serving_enabled: bool = True
    worker_mem_data_bytes: int = 4 << 30


class VirtualWarehouse:
    """An elastic pool of workers sharing one object store."""

    def __init__(
        self,
        name: str,
        clock: SimulatedClock,
        cost: DeviceCostModel,
        store: ObjectStore,
        tracer: Tracer,
        metrics: Optional[MetricRegistry] = None,
        config: Optional[WarehouseConfig] = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.cost = cost
        self.store = store
        self.metrics = metrics or MetricRegistry()
        self.config = config or WarehouseConfig()
        self.tracer = tracer
        self.fabric = RpcFabric(clock, cost, self.metrics, tracer)
        self.scheduler = SegmentScheduler()
        # Per-segment hit/miss/preload counters (the elastic preloader's
        # input signal); recorded at every index resolution.
        self.access_stats = SegmentAccessStats()
        self.workers: Dict[str, Worker] = {}
        # Fraction of warehouse compute consumed by co-located background
        # work (write workload interference, Fig 12).  0 = dedicated VW.
        self.background_load = 0.0
        self._next_worker_seq = 0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def add_worker(self, worker_id: Optional[str] = None) -> Worker:
        """Join a new (cold-cache) worker to this warehouse."""
        if worker_id is None:
            worker_id = f"{self.name}-w{self._next_worker_seq}"
            self._next_worker_seq += 1
        worker = Worker(
            worker_id, self.clock, self.cost, self.store, self.fabric,
            metrics=self.metrics,
            mem_data_bytes=self.config.worker_mem_data_bytes,
        )
        self.workers[worker_id] = worker
        self.scheduler.add_worker(worker_id)
        self.metrics.incr("warehouse.workers_added")
        return worker

    def scale_to(self, count: int) -> None:
        """Add or remove workers until the warehouse has ``count``."""
        while len(self.workers) < count:
            self.add_worker()
        while len(self.workers) > count:
            victim = sorted(self.workers)[-1]
            self.remove_worker(victim)

    def remove_worker(self, worker_id: str) -> None:
        """Graceful scale-down: the worker leaves the ring and fabric."""
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            return
        worker.alive = False
        self.scheduler.remove_worker(worker_id)
        self.fabric.remove(worker_id)

    def fail_worker(self, worker_id: str) -> None:
        """Crash-failure injection: unreachable, off the ring, cache lost."""
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            return
        worker.alive = False
        worker.lose_memory()
        self.scheduler.remove_worker(worker_id)
        self.fabric.set_reachable(worker_id, False)
        self.metrics.incr("warehouse.worker_failures")

    @property
    def worker_count(self) -> int:
        """Live workers."""
        return len(self.workers)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def preload_indexes(
        self, segment_ids: List[str], index_key_of: IndexKeyLookup
    ) -> int:
        """Cache-aware preload: pull each segment's index into the worker
        the scheduler maps it to (paper §II-D).  Returns loads done.

        Each successful load is recorded in :attr:`access_stats` so the
        elastic preloader can tell warmed segments from never-touched
        ones when it ranks the hot set for the *next* joining warehouse.
        """
        assignment = self.scheduler.assign(segment_ids)
        loaded = 0
        for segment_id, worker_id in assignment.items():
            key = index_key_of(segment_id)
            if key is None:
                continue
            worker = self.workers.get(worker_id)
            if worker is not None and worker.preload(key):
                loaded += 1
                self.access_stats.record_preload(segment_id, self.clock.now)
        return loaded

    def retire_segment(self, segment_id: str, index_key: Optional[str]) -> None:
        """Forget a retired segment: its index from every worker's caches,
        its access stats and its owner history."""
        if index_key is not None:
            for worker in self.workers.values():
                worker.invalidate(index_key)
        self.access_stats.forget(segment_id)
        self.scheduler.forget(segment_id)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _interference_factor(self) -> float:
        load = min(max(self.background_load, 0.0), 0.95)
        return 1.0 / (1.0 - load)

    def scan(self, plans, waves, bitmaps, snapshot, ctx, cancel):
        """The SELECT lifecycle's scan backend: one wave of a group of
        plans — a SELECT's one or a batch's many — under the query-level
        retry (§II-E).  Returns ``(partials per plan, makespan_s)``.

        A worker that died since scheduling fails the whole wave; it is
        retried on the refreshed topology up to :data:`MAX_QUERY_RETRIES`
        times.  Every wave that completes counts as one warehouse query
        and records its makespan.
        """
        attempts = 0
        while True:
            try:
                partials, makespan = self.capture_scans(
                    plans, waves, bitmaps, snapshot, ctx, cancel
                )
                break
            except WorkerUnavailableError:
                # Memoized remote-cache handshakes may be stale; refresh.
                for worker in self.workers.values():
                    worker.forget_remote_holdings()
                attempts += 1
                self.metrics.incr("warehouse.query_retries")
                if attempts > MAX_QUERY_RETRIES:
                    raise
        self.metrics.record_latency("warehouse.makespan", makespan)
        self.metrics.incr("warehouse.queries")
        return partials, makespan

    def capture_scans(
        self,
        plans: List[PhysicalPlan],
        waves: List[List[Segment]],
        bitmaps: Dict[str, DeleteBitmap],
        snapshot: Snapshot,
        ctx: ExecContext,
        cancel: Optional[CancelToken] = None,
    ):
        """Run every segment scan of one group's wave with the clock
        *capturing*.

        The union of the ``waves``' segments is assigned to workers, and
        each worker scans its share once for every plan probing a
        segment (a :class:`~repro.executor.parallel.GroupScan`), with
        ``ctx`` resolving indexes through its own caches (and, on a miss,
        its segment's previous owner), keyed by the pinned ``snapshot``'s
        manifest; ``cancel`` is checked before every segment.  Returns
        ``(partials per plan, effective_makespan_s)``, the makespan
        including interference.  The clock is NOT advanced: the SELECT
        lifecycle hands the makespan to whoever drains the stages as the
        wave stage's ``advance_s``.
        """
        if not self.workers:
            raise NoWorkersError(f"warehouse {self.name!r} has no workers")
        group = GroupScan(plans, waves)
        by_id = {segment.segment_id: segment for segment in group.segments}
        assignment = self.scheduler.assign(list(by_id))
        grouped = self.scheduler.group_by_worker(assignment)

        # A worker scans its segments one after another; the warehouse's
        # time is its slowest worker's.
        worker_costs: List[float] = []
        reordered = False
        for worker_id, segment_ids in grouped.items():
            worker = self.workers.get(worker_id)
            if worker is None or not worker.alive:
                raise WorkerUnavailableError(f"worker {worker_id!r} is gone")
            # The worker scans the segments whose index it holds first,
            # so its LRU keeps them (DESIGN.md §13, "Resident first").
            order, resident, keys = worker.scan_order(segment_ids, snapshot.index_key)
            reordered = reordered or order != segment_ids
            # Each segment charges a capture of its own; replaying those
            # into this one (never applied) is what the worker span reads.
            # Both add in scheduler order, so the float sums do not depend
            # on the scan order.
            with self.clock.capturing() as charged, self.tracer.span(
                "worker_scan", worker=worker_id, segments=len(segment_ids),
                resident=resident, manifest_id=snapshot.manifest_id,
            ):
                worker_ctx = replace(
                    ctx, resolve_index=self._resolver_for(worker, keys, cancel)
                )
                cost_of: Dict[str, float] = {}
                for segment_id in order:
                    if cancel is not None:
                        cancel.raise_if_cancelled()
                    with self.clock.capturing() as captured:
                        group.scan(by_id[segment_id], bitmaps.get(segment_id), worker_ctx)
                    cost_of[segment_id] = captured.total
                segment_costs = [cost_of[segment_id] for segment_id in segment_ids]
                for cost in segment_costs:
                    charged.add(cost)
            worker_costs.append(sum(segment_costs))
            queued = len(segment_ids) - 1
            if queued:
                self.metrics.incr("warehouse.scans_queued", queued)
            self.metrics.gauge("warehouse.queue_depth", queued)

        if reordered:
            # Partials keep scheduler order too: a LIMIT without ORDER BY
            # takes the first rows it meets.
            rank = {
                segment_id: position
                for position, segment_id in enumerate(chain.from_iterable(grouped.values()))
            }
            for partials in group.partials:
                partials.sort(key=lambda partial: rank[partial.segment.segment_id])

        makespan = max(worker_costs) if worker_costs else 0.0
        effective = makespan * self._interference_factor()
        return group.partials, effective

    # Nothing in the engine calls these two; they stay while
    # ``ledger/interpose.py`` names them.
    def execute_query(
        self,
        plan: PhysicalPlan,
        segments: List[Segment],
        bitmaps: Dict[str, DeleteBitmap],
        snapshot: Snapshot,
        ctx: ExecContext,
        cancel: Optional[CancelToken] = None,
    ) -> QueryResult:
        """One planned query, synchronously: :meth:`scan`, the makespan
        onto the clock, :meth:`merge_partials`."""
        start = self.clock.now
        (partials,), makespan = self.scan(
            [plan], [segments], bitmaps, snapshot, ctx, cancel
        )
        self.clock.advance(makespan)
        result = self.merge_partials(plan, partials, ctx, len(segments))
        result.simulated_seconds = self.clock.elapsed_since(start)
        return result

    def merge_partials(
        self,
        plan: PhysicalPlan,
        partials: List[PartialResult],
        ctx: ExecContext,
        n_segments: int,
    ) -> QueryResult:
        """:func:`merge_and_project`, which the SELECT lifecycle calls."""
        return merge_and_project(plan, partials, ctx, n_segments)

    def export_metrics(self) -> Dict:
        """JSON-safe warehouse snapshot including per-segment access
        stats (satellite of the elastic fleet: the preloader's input)."""
        return {
            "name": self.name,
            "workers": self.worker_count,
            "background_load": self.background_load,
            "hit_rate": self.access_stats.hit_rate(),
            "segments": self.access_stats.snapshot(),
        }

    def _resolver_for(
        self,
        worker: Worker,
        keys: Dict[str, Optional[str]],
        cancel: Optional[CancelToken] = None,
    ):
        """``ctx.resolve_index`` for ``worker``'s share of a wave, whose
        index keys :meth:`Worker.scan_order` looked up."""

        def resolve(segment: Segment):
            index_key = keys[segment.segment_id]
            previous: Optional[Worker] = None
            prev_id = self.scheduler.previous_owner(segment.segment_id)
            if prev_id is not None:
                previous = self.workers.get(prev_id)
            provider, tier = worker.resolve_provider(
                segment, index_key, previous,
                serving_enabled=self.config.serving_enabled,
            )
            if isinstance(provider, RemoteSearchProvider):
                provider.cancel = cancel
            self.access_stats.record(segment.segment_id, tier, self.clock.now)
            self.metrics.incr(f"warehouse.tier.{tier}")
            self.tracer.annotate("tier", tier)
            return provider

        return resolve
