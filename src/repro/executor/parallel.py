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
* :func:`_batch_scan_segment` is the scan for a *group* of ``nq > 1``
  same-shape vector queries: the segment is searched once for the whole
  group through its provider's ``search_batch`` — for FLAT, IVF and a
  segment searched without an index, a single ``(nq, n)`` distance
  computation (see :func:`repro.vindex.api.pairwise_distance_batch`)
  charged at the batched rate.  The in-process scan backend picks it
  over ``execute_segment`` by the size of the group it is handed.

The lane count changes simulated seconds only.  Every scan reads through
the engine's one column reader and one set of index caches, so a
segment costs the same at any lane count — warm block cache included —
and more lanes can never charge more than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    QueryResult,
    _search_provider,
    _structured_scan_mask,
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


def _batch_scan_segment(
    plan: PhysicalPlan,
    queries: np.ndarray,
    segment: Segment,
    bitmap: Optional[DeleteBitmap],
    ctx: ExecContext,
) -> List[PartialResult]:
    """Scan one segment for every row of ``queries`` at once — the query
    vectors of a group of same-shape pure-kNN plans, of which ``plan``
    is any one; one partial per row, in order.

    The batch twin of :func:`~repro.executor.pipeline.execute_segment`:
    one mask, one provider and one ``search_batch`` serve every query.
    """
    k = plan.logical.k or 10
    nq = len(queries)
    with ctx.tracer.span("segment_scan", segment=segment.segment_id, queries=nq):
        # Alive mask computed once for the whole batch.  A segment with
        # nothing deleted scans unmasked, exactly like the serial
        # ANN_ONLY path, so index traversals see the same inputs.
        mask = None
        if bitmap is not None and bitmap.deleted_count > 0:
            mask = _structured_scan_mask(plan, segment, bitmap, ctx)
        provider, charger = _search_provider(plan, segment, ctx)
        # Vectorized for FLAT (and so for a segment searched without an
        # index) and IVF; the base class loops ``search_with_filter`` for
        # graph indexes, which cannot batch their traversals and pay the
        # single-query rate.
        batch = provider.search_batch(queries, k, bitset=mask, **plan.search_params)
        if provider.supports_batch:
            total_visited = sum(result.visited for result in batch)
            ctx.clock.advance(ctx.cost.distance_cost_batch(
                nq, int(round(total_visited / nq)), segment.dim
            ))
            ctx.metrics.incr("annscan.batch_visited", total_visited)
        else:
            for result in batch:
                charger.charge_visits(result.visited, with_bitmap=mask is not None)
        return [
            PartialResult(segment, result.ids, result.distances) for result in batch
        ]
