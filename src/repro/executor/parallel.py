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
* :func:`_batch_scan_segment` is the scan kernel for a *group* of
  ``nq > 1`` same-shape vector queries: the segment is scanned once for
  the whole group, with brute-force distances computed as a single
  ``(nq, n)`` GEMM (see :func:`repro.vindex.api.pairwise_distance_batch`)
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
    _charger,
    _resolve_index,
    _structured_scan_mask,
)
from repro.planner.optimizer import ExecutionStrategy, PhysicalPlan
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment
from repro.vindex.api import pairwise_distance_batch, top_k_from_distances


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

    The batch twin of :func:`~repro.executor.pipeline.execute_segment`,
    sharing no logic with it: one mask, one index resolution and one
    ``(nq, n)`` distance kernel serve every query.
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
        provider = None
        if plan.strategy is not ExecutionStrategy.BRUTE_FORCE:
            provider = _resolve_index(plan, segment, ctx)

        if provider is not None:
            # Vectorized for FLAT and IVF; the base class loops
            # ``search_with_filter`` for graph indexes, which cannot
            # batch their traversals and pay the single-query rate.
            batch = provider.search_batch(
                queries, k, bitset=mask, **plan.search_params
            )
            if provider.supports_batch:
                total_visited = sum(result.visited for result in batch)
                ctx.clock.advance(ctx.cost.distance_cost_batch(
                    nq, int(round(total_visited / nq)), segment.dim
                ))
                ctx.metrics.incr("annscan.batch_visited", total_visited)
            else:
                charger = _charger(ctx, segment)
                for result in batch:
                    charger.charge_visits(
                        result.visited, with_bitmap=mask is not None
                    )
            return [
                PartialResult(segment, result.ids, result.distances)
                for result in batch
            ]

        # Brute force: one batched GEMM over the alive rows.
        if mask is None:
            offsets = np.arange(segment.row_count, dtype=np.int64)
        else:
            offsets = np.flatnonzero(mask)
        if offsets.size == 0:
            empty = PartialResult(
                segment, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            )
            return [empty] * nq
        # Full scans use the segment's read-only view instead of a gather copy.
        vectors = segment.vectors() if mask is None else segment.vectors_at(offsets)
        distances = pairwise_distance_batch(
            queries, vectors, plan.logical.distance.metric
        )
        ctx.clock.advance(
            ctx.cost.distance_cost_batch(nq, int(offsets.size), segment.dim)
        )
        ctx.metrics.incr("annscan.batch_brute_rows", int(offsets.size) * nq)
        partials = []
        for row in range(nq):
            result = top_k_from_distances(
                offsets, distances[row], k, visited=int(offsets.size)
            )
            partials.append(PartialResult(segment, result.ids, result.distances))
        return partials
