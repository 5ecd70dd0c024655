"""Simulated scan lanes and batched multi-query execution.

The paper's execution flow (Fig 2) runs the chosen physical plan on every
scheduled segment *concurrently* — BlendHouse workers are 80-core
machines — and merges partial top-k results afterwards.  What this
reproduction owes that claim is the simulated timeline, and that needs no
real concurrency: segments are scanned one after another, each under a
:class:`~repro.simulate.clock.CostCapture` of its own, and the captured
costs are packed onto ``parallel_workers`` simulated cores.

* :func:`lane_makespan` converts per-segment costs into one
  deterministic simulated wall-time: tasks are packed onto ``lanes``
  simulated cores with longest-processing-time-first scheduling, and the
  clock advances by the busiest lane — *max* over concurrent scans, not
  the sum.
* :class:`GroupScan` is one wave of a *group* of plans, whichever
  backend runs it — the in-process loop or a warehouse's workers: the
  segments the group probes, each scanned once for every plan probing
  it, with ``execute_segment`` for a group of one and
  :func:`_batch_scan_segment` for a larger one.  It prepares the plan
  state every segment shares (a :class:`~repro.executor.pipeline.PreparedScan`;
  a batch's same-shape plans share one) once, when the wave starts.
* :func:`_batch_scan_segment` is the scan for a group of ``nq > 1``
  same-shape vector queries: the segment is searched once for the whole
  group.  A provider that defines ``search_batch`` (FLAT, IVFFLAT and a
  segment searched without an index) answers it as one ``(nq, n)``
  distance computation (see
  :func:`repro.vindex.api.pairwise_distance_batch`) charged at the
  batched rate; any other is searched query by query at the
  single-query rate.

The lane count changes simulated seconds only.  Every scan reads through
the engine's one column reader and one set of index caches, so a
segment costs the same at any lane count — warm block cache included —
and more lanes can never charge more than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    PreparedScan,
    QueryResult,
    _search_provider,
    _structured_scan_mask,
    execute_segment,
)
from repro.planner.optimizer import PhysicalPlan
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment


def lane_makespan(costs: Sequence[float], lanes: int) -> float:
    """Deterministic makespan of ``costs`` packed onto ``lanes`` cores.

    Longest-processing-time-first greedy assignment: sort costs
    descending (stable), place each on the least-loaded lane (lowest
    index on ties).  With one lane this is exactly the serial sum; with
    ``lanes >= len(costs)`` it is the maximum single cost.
    """
    if not costs:
        return 0.0
    lanes = max(1, int(lanes))
    if lanes == 1:
        return float(sum(costs))
    loads = [0.0] * min(lanes, len(costs))
    for cost in sorted(costs, reverse=True):
        slot = min(range(len(loads)), key=loads.__getitem__)
        loads[slot] += cost
    return max(loads)


# ----------------------------------------------------------------------
# Batched (nq > 1) execution
# ----------------------------------------------------------------------
@dataclass
class BatchExecutionResult:
    """Results of one batched submission.

    ``simulated_seconds`` is the whole batch's execute phase on the
    simulated clock; each contained :class:`QueryResult` carries the
    batch-average share, which is also its ``query.latency`` sample.
    """

    results: List[QueryResult]
    simulated_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]


class GroupScan:
    """One wave of a group of plans: each segment it probes is scanned
    once, for every plan probing it.

    ``waves[i]`` is the segments plan ``i`` probes; :attr:`segments`
    is their union in the order the group first names them, and
    :attr:`partials` collects each plan's partials as :meth:`scan` runs.
    The kernel is chosen by the group's size: ``execute_segment`` (every
    strategy) for a group of one, the batched kNN kernel otherwise; both
    take the plan state prepared here, once for the wave.
    """

    def __init__(
        self, plans: Sequence[PhysicalPlan], waves: Sequence[Sequence[Segment]]
    ) -> None:
        self.plans = plans
        self._scan = PreparedScan.of(plans[0])
        self.partials: List[List[PartialResult]] = [[] for _ in plans]
        self.segments: List[Segment] = []
        self._probing: Dict[str, List[int]] = {}
        for position, wave in enumerate(waves):
            for segment in wave:
                if segment.segment_id not in self._probing:
                    self.segments.append(segment)
                self._probing.setdefault(segment.segment_id, []).append(position)
        if len(plans) > 1:
            self._matrix = np.stack(
                [plan.logical.distance.query_vector for plan in plans]
            )

    def scan(
        self, segment: Segment, bitmap: Optional[DeleteBitmap], ctx: ExecContext
    ) -> None:
        """Scan ``segment`` for every plan probing it."""
        positions = self._probing[segment.segment_id]
        if len(self.plans) == 1:
            scanned = [execute_segment(self._scan, segment, bitmap, ctx)]
        else:
            scanned = _batch_scan_segment(
                self._scan, self._matrix[positions], segment, bitmap, ctx
            )
        for position, partial in zip(positions, scanned):
            self.partials[position].append(partial)


def _batch_scan_segment(
    scan: PreparedScan,
    queries: np.ndarray,
    segment: Segment,
    bitmap: Optional[DeleteBitmap],
    ctx: ExecContext,
) -> List[PartialResult]:
    """Scan one segment for every row of ``queries`` at once — the query
    vectors of a group of same-shape pure-kNN plans, of which ``scan``
    is any one, prepared; one partial per row, in order.

    The batch twin of :func:`~repro.executor.pipeline.execute_segment`:
    one mask and one provider serve every query.
    """
    plan, k = scan.plan, scan.k
    nq = len(queries)
    with ctx.tracer.span("segment_scan", segment=segment.segment_id, queries=nq):
        # Alive mask computed once for the whole batch.  A segment with
        # nothing deleted scans unmasked, exactly like the serial
        # ANN_ONLY path, so index traversals see the same inputs.
        mask = None
        if bitmap is not None and bitmap.deleted_count > 0:
            mask = _structured_scan_mask(scan, segment, bitmap, ctx)
        provider, charger = _search_provider(scan, segment, ctx)
        # A provider defines ``search_batch`` only where the call is
        # vectorized across queries; graph indexes and a segment served
        # by another worker are searched one query at a time and pay the
        # single-query rate.
        search_batch = getattr(provider, "search_batch", None)
        if search_batch is not None:
            batch = search_batch(queries, k, bitset=mask, **plan.search_params)
            total_visited = sum(result.visited for result in batch)
            ctx.clock.advance(ctx.cost.distance_cost_batch(
                nq, int(round(total_visited / nq)), segment.dim
            ))
            ctx.metrics.incr("annscan.batch_visited", total_visited)
        else:
            batch = [
                provider.search_with_filter(query, k, bitset=mask, **plan.search_params)
                for query in queries
            ]
            for result in batch:
                charger.charge_visits(result.visited, with_bitmap=mask is not None)
        return [
            PartialResult(segment, result.ids, result.distances) for result in batch
        ]
