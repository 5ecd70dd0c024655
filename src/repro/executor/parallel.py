"""Intra-query parallel segment fan-out and batched multi-query execution.

The paper's execution flow (Fig 2) runs the chosen physical plan on every
scheduled segment *concurrently* — BlendHouse workers are 80-core
machines — and merges partial top-k results afterwards.  This module adds
that fan-out to the reproduction:

* :func:`fan_out` runs per-segment scan tasks on a real
  :class:`~concurrent.futures.ThreadPoolExecutor` (the numpy distance
  kernels release the GIL), with each task's simulated charges captured
  in a thread-local :class:`~repro.simulate.clock.CostCapture`.
* :func:`lane_makespan` converts the captured per-task costs into one
  deterministic simulated wall-time: tasks are packed onto ``lanes``
  simulated cores with longest-processing-time-first scheduling, and the
  clock advances by the busiest lane — *max* over concurrent scans, not
  the sum.
* :func:`fan_out_segments` is the bulk scan of the in-process SELECT
  backend under ``parallel_workers > 1``, on threads or through them on
  the worker-process pool.  Partial results are collected
  in scheduling order and the global merge keeps its stable
  ``(distance, segment_id, offset)`` tie-breaking, so the final top-k is
  byte-identical to the serial path for any pool size.
* :func:`execute_batch_on_segments` executes ``nq > 1`` same-shape
  vector queries together: each segment is scanned once for the whole
  batch, with brute-force distances computed as a single ``(nq, n)``
  GEMM (see :func:`repro.vindex.api.pairwise_distance_batch`) charged at
  the batched rate.

Determinism is load-bearing here: completion order of threads is
arbitrary, so nothing downstream of the pool may depend on it.  Results
and metrics are indexed by task position, metrics registries are merged
in input order after the join, and each task records its spans under a
detached holder of its own that the coordinating thread grafts into the
fan-out span in task order after the join (no span's children are ever
appended to from two threads).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.executor.cancel import CancelToken
from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    QueryResult,
    _charger,
    _resolve_index,
    _structured_scan_mask,
    execute_segment,
    merge_and_project,
)
from repro.observe.trace import Span, Tracer, maybe_span, maybe_under
from repro.planner.optimizer import ExecutionStrategy, PhysicalPlan
from repro.simulate.clock import SimulatedClock
from repro.simulate.metrics import MetricRegistry
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment
from repro.vindex.api import pairwise_distance_batch, top_k_from_distances

DEFAULT_PARALLEL_WORKERS = 8


@dataclass
class ParallelConfig:
    """Knobs for the intra-query fan-out.

    ``max_workers`` is both the thread-pool size and the number of
    simulated cores scans are packed onto; ``1`` reproduces the serial
    path exactly (one lane ⇒ makespan = sum of scan costs).
    """

    max_workers: int = DEFAULT_PARALLEL_WORKERS

    def effective_workers(self, n_tasks: int) -> int:
        """Lanes actually used for ``n_tasks`` tasks."""
        return max(1, min(self.max_workers, n_tasks))


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


def fan_out(
    clock: SimulatedClock,
    tasks: Sequence[Callable[[], object]],
    pool_size: int,
    cancel: Optional[CancelToken] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[object], List[float]]:
    """Run ``tasks`` concurrently; returns (results, costs) in task order.

    Each task executes under a thread-local cost capture on the shared
    clock, so real threads overlap wall-clock work while every simulated
    charge a task makes (distance kernels, column reads, index loads)
    accumulates privately.  The caller decides how captured costs map to
    simulated time — normally :func:`lane_makespan`.

    ``cancel`` is checked before every task starts: a cancellation that
    lands mid-fan-out lets in-flight scans finish (numpy kernels are not
    interruptible) but aborts every task that has not begun, raising
    :class:`~repro.errors.QueryCancelledError` out of the join.

    With a ``tracer``, the spans each task opens become children of the
    caller's current span, in task order whatever the completion order.
    """
    parent = tracer.current if tracer is not None else None
    holders = [Span("task", clock.now) for _ in tasks]

    def run(position: int) -> Tuple[object, float]:
        if cancel is not None:
            cancel.raise_if_cancelled()
        with clock.capturing() as captured, maybe_under(tracer, holders[position]):
            out = tasks[position]()
        return out, captured.total

    if pool_size <= 1 or len(tasks) <= 1:
        outcomes = [run(position) for position in range(len(tasks))]
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(run, range(len(tasks))))
    if parent is not None:
        for holder in holders:
            parent.adopt(holder.children)
    return [out for out, _ in outcomes], [cost for _, cost in outcomes]


def _locked_resolver(ctx: ExecContext):
    """Serialize index resolution: it mutates shared caches (memoized
    loads, LRU tiers) that are not safe under concurrent mutation."""
    lock = threading.Lock()

    def resolve(segment: Segment):
        with lock:
            return ctx.resolve_index(segment)

    return resolve


def fan_out_segments(
    plan: PhysicalPlan,
    segments: List[Segment],
    bitmaps: Dict[str, DeleteBitmap],
    ctx: ExecContext,
    lanes: int,
) -> Tuple[List[PartialResult], List[float], float]:
    """Scan ``segments`` concurrently; returns (partials, costs, makespan).

    On threads, or — when ``ctx.scan_pool`` is set — on the pool's worker
    processes, fed by as many threads as it has workers.  Either way a
    task is :func:`execute_segment` with a metrics registry of its own,
    partials and captured costs come back in scheduling order, and the
    makespan packs the costs onto ``lanes`` simulated cores, so results,
    simulated time and traces are identical in both modes.  The clock is
    not advanced: the caller owns the timeline.
    """
    lanes = max(1, min(lanes, len(segments)))
    task_metrics = [MetricRegistry() for _ in segments]
    if ctx.scan_pool is not None:
        threads = min(ctx.scan_pool.size, len(segments))
        contexts = [replace(ctx, metrics=metrics) for metrics in task_metrics]
        ctx.metrics.incr("parallel.process_fanouts")
    else:
        threads = lanes
        resolve = _locked_resolver(ctx)
        contexts = [
            replace(ctx, reader=ctx.reader.for_task(metrics),
                    resolve_index=resolve, metrics=metrics)
            for metrics in task_metrics
        ]
    tasks = [
        partial(execute_segment, plan, segment,
                bitmaps.get(segment.segment_id), task_ctx)
        for segment, task_ctx in zip(segments, contexts)
    ]
    # The tasks charge captures of their own; replaying their total into
    # this one (never applied) is what the fan-out span reads.
    with ctx.clock.capturing() as charged, \
            maybe_span(ctx.tracer, "parallel_fanout",
                       segments=len(segments), workers=lanes) as fan_span:
        partials, costs = fan_out(
            ctx.clock, tasks, threads, cancel=ctx.cancel, tracer=ctx.tracer
        )
        charged.add(sum(costs))
        makespan = lane_makespan(costs, lanes)
        if fan_span is not None:
            fan_span.set_tag("makespan_s", round(makespan, 9))
    for registry in task_metrics:
        ctx.metrics.merge(registry)
    ctx.metrics.incr("parallel.fanouts")
    ctx.metrics.incr("parallel.segments_scanned", len(segments))
    ctx.metrics.record_latency("parallel.makespan", makespan)
    return list(partials), costs, makespan


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
    config: Optional[ParallelConfig] = None,
) -> BatchExecutionResult:
    """Execute ``nq`` same-shape vector queries as one batch.

    Queries sharing a segment are scanned together (one mask, one index
    resolution, one batched distance kernel per segment); segment tasks
    then fan out across the parallel lanes like single-query execution.
    """
    config = config or ParallelConfig()
    if not plans:
        return BatchExecutionResult(results=[])
    start = ctx.clock.now

    # segment -> positions of the queries scanning it, in query order.
    segment_order: List[Segment] = []
    positions_by_segment: Dict[str, List[int]] = {}
    segment_by_id: Dict[str, Segment] = {}
    for position, scheduled in enumerate(segments_by_query):
        for segment in scheduled:
            if segment.segment_id not in positions_by_segment:
                positions_by_segment[segment.segment_id] = []
                segment_order.append(segment)
                segment_by_id[segment.segment_id] = segment
            positions_by_segment[segment.segment_id].append(position)

    lanes = config.effective_workers(max(1, len(segment_order)))
    resolve = _locked_resolver(ctx)
    task_metrics = [MetricRegistry() for _ in segment_order]
    # One (nq, dim) stack for the whole batch; segment tasks slice it.
    query_matrix = np.stack([
        plan.logical.distance.query_vector for plan in plans
    ])

    def make_task(task_index: int, segment: Segment):
        def run() -> List[Tuple[int, PartialResult]]:
            metrics = task_metrics[task_index]
            task_ctx = replace(
                ctx, reader=ctx.reader.for_task(metrics),
                resolve_index=resolve, metrics=metrics,
            )
            positions = positions_by_segment[segment.segment_id]
            with maybe_span(ctx.tracer, "segment_scan",
                            segment=segment.segment_id, queries=len(positions)):
                return _batch_scan_segment(
                    plans, positions, segment,
                    bitmaps.get(segment.segment_id), task_ctx,
                    query_matrix=query_matrix,
                )
        return run

    tasks = [make_task(i, segment) for i, segment in enumerate(segment_order)]
    with maybe_span(ctx.tracer, "batch_fanout",
                    queries=len(plans), segments=len(segment_order),
                    workers=lanes) as fan_span:
        scans, costs = fan_out(
            ctx.clock, tasks, lanes, cancel=ctx.cancel, tracer=ctx.tracer
        )
        for registry in task_metrics:
            ctx.metrics.merge(registry)
        makespan = lane_makespan(costs, lanes)
        if fan_span is not None:
            fan_span.set_tag("makespan_s", round(makespan, 9))
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
