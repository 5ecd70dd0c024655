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
* :func:`execute_batch_on_segments` executes ``nq > 1`` same-shape
  vector queries together: each segment is scanned once for the whole
  batch, with brute-force distances computed as a single ``(nq, n)``
  GEMM (see :func:`repro.vindex.api.pairwise_distance_batch`) charged at
  the batched rate.

The lane count changes simulated seconds only.  Every scan reads through
the engine's one column reader and one set of index caches, so a
segment costs the same at any lane count — warm block cache included —
and more lanes can never charge more than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    QueryResult,
    _charger,
    _resolve_index,
    _structured_scan_mask,
    merge_and_project,
)
from repro.observe.trace import maybe_span
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

    ``simulated_seconds`` is the whole batch's wall-time on the simulated
    clock; each contained :class:`QueryResult` carries the batch-average
    share so per-query latency series stay populated.
    """

    results: List[QueryResult]
    simulated_seconds: float = 0.0
    segments_scanned: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]


def _batch_scan_segment(
    plans: List[PhysicalPlan],
    query_positions: List[int],
    segment: Segment,
    bitmap: Optional[DeleteBitmap],
    ctx: ExecContext,
    query_matrix: Optional[np.ndarray] = None,
) -> List[Tuple[int, PartialResult]]:
    """Scan one segment for every query in ``query_positions`` at once.

    Brute-force scans (and index-less fallbacks) use one ``(nq, n)``
    batched distance kernel charged at the GEMM rate; index-backed scans
    go through the provider's ``search_batch`` (vectorized for FLAT and
    IVF, a per-query loop for graph indexes, which cannot batch their
    traversals).

    ``query_matrix`` is the (total_nq, dim) stack built once by the
    coordinator; each segment task gathers its rows from it instead of
    re-stacking python lists per task.
    """
    representative = plans[query_positions[0]]
    if query_matrix is not None:
        queries = query_matrix[query_positions]
    else:
        queries = np.stack([
            plans[position].logical.distance.query_vector
            for position in query_positions
        ])
    metric = representative.logical.distance.metric
    k = representative.logical.k or 10
    nq = len(query_positions)

    # Alive/predicate mask computed once for the whole batch — deletes
    # and structured-scan cost amortize across the nq queries.  A segment
    # with nothing deleted and no predicate scans unmasked, exactly like
    # the serial ANN_ONLY path, so index traversals see the same inputs.
    if (
        representative.logical.scalar_predicate is None
        and (bitmap is None or bitmap.deleted_count == 0)
    ):
        mask = None
    else:
        mask = _structured_scan_mask(representative, segment, bitmap, ctx)

    provider = None
    if representative.strategy is not ExecutionStrategy.BRUTE_FORCE:
        provider = _resolve_index(representative, segment, ctx)

    out: List[Tuple[int, PartialResult]] = []
    if provider is not None and getattr(provider, "supports_batch", False):
        batch = provider.search_batch(
            queries, k, bitset=mask, **representative.search_params
        )
        total_visited = sum(result.visited for result in batch)
        mean_visited = total_visited / max(1, nq)
        ctx.clock.advance(
            ctx.cost.distance_cost_batch(nq, int(round(mean_visited)), segment.dim)
        )
        ctx.metrics.incr("annscan.batch_visited", total_visited)
        for position, result in zip(query_positions, batch):
            out.append((position, PartialResult(segment, result.ids, result.distances)))
        return out
    if provider is not None:
        # No vectorized batch (graph traversal): per-query searches at
        # the normal single-query rate.
        charger = _charger(ctx, segment)
        for position in query_positions:
            plan = plans[position]
            result = provider.search_with_filter(
                plan.logical.distance.query_vector, k, bitset=mask,
                **plan.search_params,
            )
            charger.charge_visits(result.visited, with_bitmap=mask is not None)
            out.append((position, PartialResult(segment, result.ids, result.distances)))
        return out

    # Brute force: one batched GEMM over the alive rows.
    if mask is None:
        offsets = np.arange(segment.row_count, dtype=np.int64)
    else:
        offsets = np.flatnonzero(mask)
    if offsets.size == 0:
        empty = PartialResult(
            segment, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        )
        return [(position, empty) for position in query_positions]
    # Full scans use the segment's read-only view instead of a gather copy.
    vectors = segment.vectors() if mask is None else segment.vectors_at(offsets)
    distances = pairwise_distance_batch(queries, vectors, metric)
    ctx.clock.advance(ctx.cost.distance_cost_batch(nq, int(offsets.size), segment.dim))
    ctx.metrics.incr("annscan.batch_brute_rows", int(offsets.size) * nq)
    for row, position in enumerate(query_positions):
        result = top_k_from_distances(
            offsets, distances[row], k, visited=int(offsets.size)
        )
        out.append((position, PartialResult(segment, result.ids, result.distances)))
    return out


def execute_batch_on_segments(
    plans: List[PhysicalPlan],
    segments_by_query: List[List[Segment]],
    bitmaps: Dict[str, DeleteBitmap],
    ctx: ExecContext,
    lanes: int,
) -> BatchExecutionResult:
    """Execute ``nq`` same-shape vector queries as one batch.

    Queries sharing a segment are scanned together (one mask, one index
    resolution, one batched distance kernel per segment); the segment
    tasks' captured costs are then packed onto ``lanes`` simulated cores
    like single-query execution.
    """
    if not plans:
        return BatchExecutionResult(results=[])
    start = ctx.clock.now

    # segment -> positions of the queries scanning it, in query order.
    segment_order: List[Segment] = []
    positions_by_segment: Dict[str, List[int]] = {}
    for position, scheduled in enumerate(segments_by_query):
        for segment in scheduled:
            if segment.segment_id not in positions_by_segment:
                positions_by_segment[segment.segment_id] = []
                segment_order.append(segment)
            positions_by_segment[segment.segment_id].append(position)

    # One (nq, dim) stack for the whole batch; segment tasks slice it.
    query_matrix = np.stack([
        plan.logical.distance.query_vector for plan in plans
    ])
    scans: List[List[Tuple[int, PartialResult]]] = []
    costs: List[float] = []
    for segment in segment_order:
        if ctx.cancel is not None:
            ctx.cancel.raise_if_cancelled()
        positions = positions_by_segment[segment.segment_id]
        with ctx.clock.capturing() as captured, \
                maybe_span(ctx.tracer, "segment_scan",
                           segment=segment.segment_id, queries=len(positions)):
            scans.append(_batch_scan_segment(
                plans, positions, segment,
                bitmaps.get(segment.segment_id), ctx,
                query_matrix=query_matrix,
            ))
        costs.append(captured.total)
    makespan = lane_makespan(costs, lanes)
    ctx.clock.advance(makespan)
    ctx.metrics.record_latency("batch.makespan", makespan)

    partials_by_query: List[List[PartialResult]] = [[] for _ in plans]
    for scan in scans:
        for position, partial in scan:
            partials_by_query[position].append(partial)

    results: List[QueryResult] = []
    for position, plan in enumerate(plans):
        results.append(
            merge_and_project(
                plan, partials_by_query[position], ctx,
                len(segments_by_query[position]),
            )
        )
    elapsed = ctx.clock.elapsed_since(start)
    for result in results:
        result.simulated_seconds = elapsed / max(1, len(plans))
    return BatchExecutionResult(
        results=results,
        simulated_seconds=elapsed,
        segments_scanned=len(segment_order),
    )
