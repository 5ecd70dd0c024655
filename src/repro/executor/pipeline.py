"""Per-segment plan execution and the global partial top-k merge.

Mirrors the paper's Fig 2 execution flow: every scheduled segment runs
the chosen physical plan locally, producing a *partial* top-k; a merge
operator combines partials into the global top-k; finally the needed
scalar columns are fetched for just the surviving rows (vector column
pruning + reduced read granularity keep this cheap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.executor.annscan import (
    ScanCharger,
    SearchProvider,
    search_iterator_op,
    search_with_filter_op,
    search_with_range_op,
)
from repro.executor.columnio import ColumnReader
from repro.observe.trace import Tracer
from repro.planner.cost import CostModelParams
from repro.planner.optimizer import ExecutionStrategy, PhysicalPlan
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.sqlparser.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    UnaryOp,
)
from repro.sqlparser.expressions import evaluate_predicate
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment
from repro.vindex.flat import FlatIndex

# Post-filter safety cap: iterations per segment before giving up.
MAX_POST_FILTER_ITERATIONS = 64

IndexResolver = Callable[[Segment], Optional[SearchProvider]]


@dataclass
class ExecContext:
    """Everything per-segment execution needs."""

    clock: SimulatedClock
    cost: DeviceCostModel
    params: CostModelParams
    reader: ColumnReader
    resolve_index: IndexResolver
    tracer: Tracer
    metrics: MetricRegistry = field(default_factory=MetricRegistry)


@dataclass
class PartialResult:
    """One segment's contribution: row offsets plus optional distances."""

    segment: Segment
    offsets: np.ndarray
    distances: Optional[np.ndarray] = None


@dataclass
class QueryResult:
    """Final result set."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    strategy: ExecutionStrategy
    simulated_seconds: float = 0.0
    segments_scanned: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[Any]:
        """All values of one output column."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"result has no column {name!r}") from None
        return [row[idx] for row in self.rows]


def referenced_columns(expr: Optional[Expression]) -> Set[str]:
    """Column names a predicate touches (for structured-scan costing)."""
    found: Set[str] = set()
    if expr is None:
        return found

    def walk(node: Expression) -> None:
        if isinstance(node, ColumnRef):
            found.add(node.name)
        elif isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, FunctionCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return found


@dataclass(frozen=True)
class PreparedScan:
    """What every segment scan of one plan shares, prepared once a wave.

    :class:`~repro.executor.parallel.GroupScan` makes one when a wave
    starts (a batch's same-shape plans share it) and hands it to every
    segment scan, so a segment does only its own work.  Plan A (``BRUTE_FORCE``) and a plan that bypasses the
    index resolve none: ``resolves_index`` is False and every segment is
    searched through a FLAT view of its own vectors.
    """

    plan: PhysicalPlan
    # Columns the scalar predicate reads (empty without one).
    predicate_columns: Set[str]
    resolves_index: bool
    # The distance's query vector and metric (None and "" for a scalar
    # query), and the per-segment top-k.
    query: Optional[np.ndarray]
    metric: str
    k: int

    @classmethod
    def of(cls, plan: PhysicalPlan) -> "PreparedScan":
        logical = plan.logical
        distance = logical.distance
        return cls(
            plan=plan,
            predicate_columns=referenced_columns(logical.scalar_predicate),
            resolves_index=(
                plan.use_index and plan.strategy is not ExecutionStrategy.BRUTE_FORCE
            ),
            query=None if distance is None else distance.query_vector,
            metric="" if distance is None else distance.metric,
            k=logical.k or 10,
        )


def _segment_columns(segment: Segment, names: Set[str]) -> Dict[str, Any]:
    columns: Dict[str, Any] = {}
    for name in names:
        if name == segment.meta.vector_column:
            columns[name] = segment.vectors()
        else:
            columns[name] = segment.scalar_column(name)
    return columns


def _alive_mask(bitmap: DeleteBitmap, ctx: ExecContext) -> np.ndarray:
    """Delete-bitmap filtering, attributed to the trace and metrics."""
    with ctx.tracer.span("delete_bitmap.filter", deleted=bitmap.deleted_count):
        ctx.metrics.incr("delete_bitmap.filters")
        return bitmap.alive_mask()


def _structured_scan_mask(
    scan: PreparedScan,
    segment: Segment,
    bitmap: Optional[DeleteBitmap],
    ctx: ExecContext,
) -> np.ndarray:
    """Alive ∧ predicate mask, charging the structured scan cost T0.

    A segment with nothing deleted builds no alive mask, as on the
    index paths.  The mask returned is always the caller's to write.
    """
    alive: Optional[np.ndarray] = None
    if bitmap is not None and bitmap.deleted_count > 0:
        alive = _alive_mask(bitmap, ctx)
    predicate = scan.plan.logical.scalar_predicate
    if predicate is None:
        return np.ones(segment.row_count, bool) if alive is None else alive
    needed = scan.predicate_columns
    columns = _segment_columns(segment, needed)
    ctx.clock.advance(segment.row_count * ctx.params.t0_per_row * max(1, len(needed)))
    # evaluate_predicate returns a fresh array (its astype copies even a
    # bare boolean column), never a view of the segment's data.
    mask = evaluate_predicate(predicate, columns, segment.row_count)
    return mask if alive is None else mask & alive


def _search_provider(
    scan: PreparedScan, segment: Segment, ctx: ExecContext
) -> Tuple[SearchProvider, ScanCharger]:
    """What ``scan`` searches ``segment`` through, and how it is charged.

    A plan that resolves an index searches it and is charged an index
    scan.  Plan A resolves nothing, and neither does a plan that bypasses
    the index; they, and a plan whose resolve finds no index (none built,
    cache miss), search a FLAT view of the segment's own vectors and are
    charged an exact scan.
    """
    provider: Optional[SearchProvider] = None
    index_type = None
    if scan.resolves_index:
        # Resolvers annotate the open span with the tier the index came
        # from (built / memory / disk / serving / cold_load / brute).
        with ctx.tracer.span("index_resolve", segment=segment.segment_id):
            provider = ctx.resolve_index(segment)
        index_type = segment.meta.index_type
    if provider is None:
        provider = FlatIndex.view(segment.vectors(), scan.metric)
        index_type = None
    charger = ScanCharger(ctx.clock, ctx.cost, ctx.metrics, segment.dim, index_type)
    return provider, charger


def _empty(segment: Segment) -> PartialResult:
    return PartialResult(segment, np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.float64))


def _scan_segment(
    scan: PreparedScan,
    segment: Segment,
    bitmap: Optional[DeleteBitmap],
    ctx: ExecContext,
) -> PartialResult:
    """Run ``scan``'s plan on one segment."""
    plan = scan.plan
    strategy = plan.strategy

    if strategy is ExecutionStrategy.SCALAR_ONLY:
        mask = _structured_scan_mask(scan, segment, bitmap, ctx)
        return PartialResult(segment, np.flatnonzero(mask))

    provider, charger = _search_provider(scan, segment, ctx)
    query, k = scan.query, scan.k

    if strategy in (ExecutionStrategy.BRUTE_FORCE, ExecutionStrategy.PRE_FILTER):
        mask = _structured_scan_mask(scan, segment, bitmap, ctx)
        # Plan B searches no index with nothing allowed; Plan A's exact
        # scan learns that from the offsets it gathers anyway.
        if strategy is ExecutionStrategy.PRE_FILTER and not mask.any():
            return _empty(segment)
        result = search_with_filter_op(
            provider, query, k, mask, charger,
            sigma=plan.sigma, **plan.search_params,
        )
        return PartialResult(segment, result.ids, result.distances)

    alive: Optional[np.ndarray] = None
    if bitmap is not None and bitmap.deleted_count > 0:
        alive = _alive_mask(bitmap, ctx)

    if strategy is ExecutionStrategy.ANN_ONLY:
        result = search_with_filter_op(
            provider, query, k, alive, charger,
            sigma=plan.sigma, **plan.search_params,
        )
        return PartialResult(segment, result.ids, result.distances)

    if strategy is ExecutionStrategy.RANGE:
        radius = plan.logical.distance_range
        if radius is None:
            raise ExecutionError("RANGE strategy requires a distance range")
        result = search_with_range_op(
            provider, query, radius, alive, charger, **plan.search_params,
        )
        offsets, distances = result.ids, result.distances
        if plan.logical.scalar_predicate is not None and offsets.size:
            keep = _postfilter_offsets(scan, segment, offsets, ctx)
            offsets, distances = offsets[keep], distances[keep]
        return PartialResult(segment, offsets, distances)

    if strategy is ExecutionStrategy.POST_FILTER:
        return _execute_post_filter(scan, segment, alive, ctx, charger, provider)

    raise ExecutionError(f"unknown strategy {strategy}")


def _postfilter_offsets(
    scan: PreparedScan,
    segment: Segment,
    offsets: np.ndarray,
    ctx: ExecContext,
) -> np.ndarray:
    """Boolean keep-mask for ``offsets`` under the scalar predicate,
    reading only the candidate rows (charged through the column reader)."""
    predicate = scan.plan.logical.scalar_predicate
    assert predicate is not None
    columns: Dict[str, Any] = {}
    for name in scan.predicate_columns:
        if name == segment.meta.vector_column:
            columns[name] = segment.vectors_at(offsets)
        else:
            columns[name] = ctx.reader.fetch(segment, name, offsets)
    return evaluate_predicate(predicate, columns, int(offsets.size))


def _execute_post_filter(
    scan: PreparedScan,
    segment: Segment,
    alive: Optional[np.ndarray],
    ctx: ExecContext,
    charger: ScanCharger,
    provider: SearchProvider,
) -> PartialResult:
    """Plan C: iterate the ANN stream, filter each batch, stop at σ·k."""
    plan, k = scan.plan, scan.k
    target = int(max(1.0, plan.sigma) * k)
    batch_size = max(k, 32)
    iterator = search_iterator_op(
        provider, scan.query, alive, charger, batch_size, **plan.search_params,
    )
    kept_offsets: List[np.ndarray] = []
    kept_distances: List[np.ndarray] = []
    collected = 0
    iterations = 0
    while collected < target and iterations < MAX_POST_FILTER_ITERATIONS:
        if iterator.exhausted:
            break
        batch = iterator.next_batch()
        iterations += 1
        if len(batch) == 0:
            break
        offsets = batch.ids
        distances = batch.distances
        if plan.logical.scalar_predicate is not None:
            keep = _postfilter_offsets(scan, segment, offsets, ctx)
            offsets, distances = offsets[keep], distances[keep]
        if offsets.size:
            kept_offsets.append(offsets)
            kept_distances.append(distances)
            collected += int(offsets.size)
    ctx.metrics.incr("postfilter.iterations", iterations)
    if not kept_offsets:
        return _empty(segment)
    all_offsets = np.concatenate(kept_offsets)
    all_distances = np.concatenate(kept_distances)
    order = np.argsort(all_distances, kind="stable")[:k]
    return PartialResult(segment, all_offsets[order], all_distances[order])


# ----------------------------------------------------------------------
# Merge + projection
# ----------------------------------------------------------------------
def _merge_partials(
    plan: PhysicalPlan, partials: List[PartialResult]
) -> List[Tuple[Segment, int, Optional[float]]]:
    """Global top-k (vector queries) or concatenation (scalar queries)."""
    logical = plan.logical
    rows: List[Tuple[Segment, int, Optional[float]]] = []
    if logical.is_vector_query:
        # Each row is its own sort key, built once: (distance, segment
        # id, offset, partial's position).  The position, last, only
        # breaks ties the first three leave, as a stable sort on them
        # would, and keeps the segment objects out of the comparisons.
        keyed: List[Tuple[float, str, int, int]] = []
        for position, partial in enumerate(partials):
            if partial.distances is not None:
                keyed += zip(
                    partial.distances.tolist(), repeat(partial.segment.segment_id),
                    partial.offsets.tolist(), repeat(position),
                )
        keyed.sort()
        if logical.distance_range is not None:
            keyed = [row for row in keyed if row[0] <= logical.distance_range]
        if logical.k is not None:
            # k already includes the offset (top-k pushdown rule), so the
            # window is [offset, k).
            keyed = keyed[logical.offset : logical.k]
        rows = [
            (partials[position].segment, offset, dist)
            for dist, _, offset, position in keyed
        ]
    else:
        for partial in partials:
            for offset in partial.offsets.tolist():
                rows.append((partial.segment, int(offset), None))
        if logical.k is not None:
            rows = rows[logical.offset : logical.offset + logical.k]
    return rows


def _project(
    plan: PhysicalPlan,
    merged: List[Tuple[Segment, int, Optional[float]]],
    ctx: ExecContext,
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    logical = plan.logical
    names: List[str] = []
    for column, alias in zip(logical.output_columns, logical.output_aliases):
        if alias:
            names.append(alias)
        elif column == "__distance__":
            names.append("distance")
        else:
            names.append(column)

    # Group surviving rows by segment for batched column fetches:
    # (segment, positions, offsets), in the order the merge names them.
    groups: Dict[str, Tuple[Segment, List[int], List[int]]] = {}
    for position, (segment, offset, _) in enumerate(merged):
        group = groups.get(segment.segment_id)
        if group is None:
            groups[segment.segment_id] = (segment, [position], [offset])
        else:
            group[1].append(position)
            group[2].append(offset)

    columns: List[List[Any]] = []
    for column in logical.output_columns:
        if column == "__distance__":
            columns.append([dist for _, _, dist in merged])
            continue
        values: List[Any] = [None] * len(merged)
        for segment, positions, offsets in groups.values():
            if column == segment.meta.vector_column:
                fetched = segment.vectors_at(offsets)
                ctx.clock.advance(
                    ctx.cost.ram_read(int(np.asarray(fetched).nbytes))
                )
            else:
                fetched = ctx.reader.fetch(segment, column, offsets)
            if isinstance(fetched, np.ndarray) and fetched.ndim == 1:
                # One call, element by element the same as item().
                fetched = fetched.tolist()
            else:
                # Vector rows stay ndarrays; a list column may hold numpy
                # scalars.
                fetched = [
                    value.item() if isinstance(value, np.generic) else value
                    for value in fetched
                ]
            for position, value in zip(positions, fetched):
                values[position] = value
        columns.append(values)
    return names, list(zip(*columns))


def execute_segment(
    scan: PreparedScan,
    segment: Segment,
    bitmap: Optional[DeleteBitmap],
    ctx: ExecContext,
) -> PartialResult:
    """Run ``scan``'s plan on one segment (the unit a cluster worker
    executes)."""
    with ctx.tracer.span("segment_scan", segment=segment.segment_id,
                         strategy=scan.plan.strategy.value) as span:
        partial = _scan_segment(scan, segment, bitmap, ctx)
        span.set_tag("rows", int(partial.offsets.size))
        return partial


def merge_and_project(
    plan: PhysicalPlan,
    partials: List[PartialResult],
    ctx: ExecContext,
    segments_scanned: int,
) -> QueryResult:
    """Merge partial top-k results and fetch the projected columns."""
    with ctx.tracer.span("merge_project", partials=len(partials)) as span:
        merged = _merge_partials(plan, partials)
        names, rows = _project(plan, merged, ctx)
        span.set_tag("rows", len(rows))
        return QueryResult(
            columns=names,
            rows=rows,
            strategy=plan.strategy,
            segments_scanned=segments_scanned,
        )
