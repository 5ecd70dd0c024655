"""The BlendHouse engine.

One :class:`BlendHouse` instance is a deployment of the full stack: SQL
front-end → catalog → optimizer (RBO + CBO + plan cache +
short-circuit) → segment pruning (scalar, plus semantic on ``CLUSTER
BY`` tables, widened to the reserve segments when the kept ones come
back short) → per-segment execution → partial top-k merge → projection.
Segments are scanned in this process; the clustered and fleet engines
are subclasses that scan on a read warehouse instead
(:meth:`BlendHouse._backend`).

Typical use::

    db = BlendHouse()
    db.execute("CREATE TABLE docs (id UInt64, label String, "
               "embedding Array(Float32), "
               "INDEX ann embedding TYPE HNSW('DIM=64'))")
    db.insert_rows("docs", rows)
    result = db.execute(
        "SELECT id, dist FROM docs WHERE label = 'news' "
        "ORDER BY L2Distance(embedding, [...]) AS dist LIMIT 10")

Session settings (:mod:`repro.core.settings`, twelve names) mirror the
paper's ablation switches plus the knobs its benchmarks turn::

    SET enable_cbo = 0          -- Fig 15: static pre-filter default
    SET enable_plan_cache = 0   -- Fig 17: pay full planning per query
    SET read_opt = 0            -- Fig 17: full-block column reads
    SET semantic_prune_keep = 4 -- Fig 16: segments kept by centroid rank
    SET ef_search = 128         -- Figs 9, 10, 13: index search depth

Everything else the engine decides by rule or by a module constant; an
engine's whole history is a function of its inputs, never of the host's
speed.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.catalog import Catalog, TableEntry
from repro.catalog.schema import TableSchema
from repro.core.explain import ExplainResult
from repro.core.settings import EngineSettings
from repro.core.table import TableRuntime
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.durability.recovery import RecoveryReport, run_recovery
from repro.errors import BlendHouseError, SQLError
from repro.executor.cancel import CancelToken
from repro.executor.columnio import ColumnReader
from repro.executor.parallel import BatchExecutionResult, GroupScan, lane_makespan
from repro.executor.pipeline import ExecContext, QueryResult, merge_and_project
from repro.ingest.update import apply_delete, apply_update
from repro.ingest.writer import IngestConfig, IngestReport
from repro.observe.events import EventLog
from repro.observe.export import MetricsExporter
from repro.observe.slowlog import FlightRecord, SlowQueryLog, SlowQueryReport
from repro.observe.trace import Span, Tracer
from repro.partition.pruning import prune_segments_scalar, select_semantic_candidates
from repro.planner.cost import CostModelParams
from repro.planner.logical import PreparedSelect, bind_select, prepare_select
from repro.planner.optimizer import ExecutionStrategy, Optimizer, PhysicalPlan
from repro.planner.plancache import PlanCache
from repro.planner.rules import apply_rules
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.sqlparser.ast_nodes import (
    Checkpoint,
    CreateTable,
    Delete,
    DropTable,
    Explain,
    Insert,
    Select,
    SetStatement,
    ShowSlowQueries,
    Update,
)
from repro.sqlparser.lexer import Scan, scan_statement
from repro.sqlparser.parser import parse_statement
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment
from repro.vindex.registry import IndexSpec, parse_index_options


@dataclass
class SelectStage:
    """One checkpoint of a staged SELECT (see :meth:`BlendHouse.select_stages`).

    ``advance_s`` is how much simulated time the *query* occupies for
    this stage (captured, not yet applied to the clock): the plan's
    cost, a wave's makespan over parallel lanes or workers, a member's
    merge cost.  Per-segment costs are the ``segment_scan`` spans.
    """

    name: str
    advance_s: float
    result: Optional[QueryResult] = None
    # On the final stage only: what a flight record is built from (the
    # plan, manifest_id, serving warehouse, cache counters before the
    # query, its root span).  :meth:`BlendHouse.offer_flight` turns it
    # into a record if the slow-query log wants one.
    flight: Optional[Dict[str, Any]] = None


class _InProcessBackend:
    """Scan backend that runs segment scans in the engine's process.

    One after another, each under a capture of its own and after a check
    of the query's cancel token; the wave's time is the captured costs
    packed onto ``parallel_workers`` simulated cores.
    """

    name: Optional[str] = None  # no warehouse serves these queries

    def __init__(self, db: "BlendHouse") -> None:
        self.db = db

    def scan(self, plans, waves, bitmaps, snapshot, ctx, cancel):
        db = self.db
        lanes = db.settings.parallel_workers
        db.tracer.annotate("lanes", lanes)  # the ``execute`` span
        group = GroupScan(plans, waves)
        costs = []
        for segment in group.segments:
            if cancel is not None:
                cancel.raise_if_cancelled()
            with db.clock.capturing() as captured:
                group.scan(segment, bitmaps.get(segment.segment_id), ctx)
            costs.append(captured.total)
        return group.partials, lane_makespan(costs, lanes)


@dataclass
class _SelectQuery:
    """One scanned [EXPLAIN] SELECT on its way through the lifecycle.

    ``sql`` is the SELECT's own text and ``select`` its AST — on a
    prepared hit the shape's shared template, whose literal values are
    another statement's: this one's are ``scan.literals``.
    """

    sql: str
    scan: Scan
    select: Select
    prepared: Optional[PreparedSelect] = None

    @property
    def as_of(self) -> Optional[int]:
        """The manifest id the statement pins itself to, if any."""
        slot = self.select.as_of_slot
        return None if slot is None else self.scan.integer(slot)


class _NotOneBatch(Exception):
    """The statements of an ``execute_batch`` plan to different shapes."""


class BlendHouse:
    """Single-process BlendHouse engine over simulated cloud storage."""

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[DeviceCostModel] = None,
        ingest_config: Optional[IngestConfig] = None,
        settings: Optional[EngineSettings] = None,
        store: Optional[ObjectStore] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        self.clock = clock or (store.clock if store is not None else SimulatedClock())
        self.cost = cost_model or (
            store.cost_model if store is not None else DeviceCostModel()
        )
        self.settings = settings or EngineSettings()
        self._cost_params: Dict[int, CostModelParams] = {}
        self.metrics = MetricRegistry()
        # The engine-wide event log rides on the registry so deep
        # components (manifest store, caches, WAL, compactor) can emit
        # without constructor plumbing; see observe/events.emit_event.
        self.events = EventLog(self.clock)
        self.metrics.events = self.events
        self.tracer = Tracer(self.clock, metrics=self.metrics)
        self.slowlog = SlowQueryLog()
        if store is not None:
            # Recovery path: reuse the surviving shared store (and its
            # clock/cost model unless overridden above).
            self.store = store
            store.rebind_metrics(self.metrics)
        else:
            self.store = ObjectStore(self.clock, self.cost, self.metrics)
        self.catalog = Catalog()
        self.plan_cache = PlanCache()
        self._ingest_config = ingest_config or IngestConfig()
        self.reader = ColumnReader(self.clock, self.cost, self.metrics)
        self._tables: Dict[str, TableRuntime] = {}
        self.last_recovery: Optional[RecoveryReport] = None
        self._durability = DurabilityManager(self, durability)
        self._in_process = _InProcessBackend(self)

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------
    def table(self, name: str) -> TableRuntime:
        """Runtime state for table ``name``."""
        self.catalog.get(name)  # raises if unknown
        return self._tables[name]

    def _attach_runtime(self, entry: TableEntry) -> TableRuntime:
        """Build and register the runtime for a (new or recovered) table."""
        runtime = TableRuntime(
            entry, self.store, self.clock, self.cost, self.metrics,
            ingest_config=self._ingest_config, tracer=self.tracer,
        )
        self._tables[entry.schema.name] = runtime
        self._durability.register_table(runtime)
        runtime.manager.on_retire(partial(self._retire, runtime))
        return runtime

    # ------------------------------------------------------------------
    # Segment retirement
    # ------------------------------------------------------------------
    def _retire(
        self, runtime: TableRuntime, segment: Segment, index_key: Optional[str]
    ) -> None:
        """The one way out for a segment: compaction's inputs, once no
        pinned manifest holds them (the manifest store's retire event),
        and every segment of a dropped table.  Caches forget the index
        now, and warehouses the segment's access stats and owner
        history; the payloads wait for a checkpoint that no longer needs
        them.  Ids never repeat (the catalog), so a column block still
        cached under a retired id is never read again."""
        runtime.forget_index(index_key)
        self._release(segment.segment_id, index_key)
        self._durability.defer_segment_delete(segment, index_key)

    def _drop_table(self, name: str) -> None:
        """Retire every segment of table ``name``, already gone from the
        catalog."""
        runtime = self._tables.pop(name)
        for segment in runtime.manager.segments():
            self._retire(
                runtime, segment, runtime.manager.index_key(segment.segment_id)
            )

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, tenant: str = "default", lane: str = "interactive"
    ) -> Any:
        """Execute one SQL statement.

        Returns a :class:`QueryResult` for SELECTs, an
        :class:`IngestReport` for INSERTs, an :class:`ExplainResult`
        for EXPLAIN [ANALYZE], and small ack objects for other
        statements.  Every statement records a ``query`` root span with
        the parse and dispatch work as children.  A SELECT (and EXPLAIN
        ANALYZE) scans on ``self._backend(tenant, lane)``.
        """
        return self._execute(sql, tenant, lane)

    def _execute(self, sql: str, tenant: str, lane: str) -> Any:
        """The statement path every engine's :meth:`execute` runs."""
        with self.tracer.span("query") as root:
            with self.tracer.span("parse"):
                statement, query = self._parse(sql)
            root.set_tag("statement", type(statement).__name__)
            return self._dispatch(statement, query, root, tenant, lane)

    def _backend(self, tenant: str, lane: str) -> Any:
        """Where a SELECT from ``(tenant, lane)`` scans: this process.

        The engines that scan elsewhere override it — a clustered engine
        returns its read warehouse, a fleet engine the member its router
        picks — and, beside it, what their workers forget when a segment
        retires (:meth:`_release`).  A backend is what
        :meth:`select_stages` documents.
        """
        return self._in_process

    def _release(self, segment_id: str, index_key: Optional[str]) -> None:
        """Forget a retired segment where SELECTs scan: nothing to do in
        this process, whose table runtimes forget their own indexes.  An
        engine that scans on warehouses overrides it, as it does
        :meth:`_backend`."""

    def _parse(self, sql: str) -> Tuple[Any, Optional[_SelectQuery]]:
        """The statement front door: one scan of ``sql``, then its shape's
        prepared SELECT if the plan cache holds one, else the parser.
        Returns the statement (on a prepared hit the
        shape's template: right type, another statement's literals) and,
        for an [EXPLAIN] SELECT, the query the lifecycle runs."""
        scan = scan_statement(sql)
        if scan.error is not None:
            raise scan.error
        prepared = None
        if self.settings.enable_plan_cache:
            prepared = self.plan_cache.template(scan.signature)
        if prepared is None:
            statement = select = parse_statement(sql, scan)
            if isinstance(statement, Explain):
                select = statement.statement
            elif not isinstance(statement, Select):
                return statement, None
        else:
            select = prepared.select
            statement = Explain(select, scan.explain == 2) if scan.explain else select
        return statement, _SelectQuery(sql[scan.start:], scan, select, prepared)

    def _dispatch(
        self, statement: Any, query: Optional[_SelectQuery], root: Span,
        tenant: str, lane: str,
    ) -> Any:
        if isinstance(statement, Explain):
            backend = self._backend(tenant, lane) if statement.analyze else None
            return self._execute_explain(query, root, backend)
        if isinstance(statement, CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, DropTable):
            return self._execute_drop(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Select):
            (stage,) = self._drain(
                [query.sql],
                self._lifecycle([query], root, self._backend(tenant, lane)),
            )
            return stage.result
        if isinstance(statement, Update):
            runtime = self.table(statement.table)
            result = apply_update(
                runtime.manager, runtime.writer, statement.assignments, statement.where
            )
            self._maybe_compact(runtime)
            self._durability.statement_boundary()
            return result
        if isinstance(statement, Delete):
            runtime = self.table(statement.table)
            result = apply_delete(runtime.manager, statement.where)
            self._maybe_compact(runtime)
            self._durability.statement_boundary()
            return result
        if isinstance(statement, SetStatement):
            self.settings.apply(statement.name, statement.value)
            return {"setting": statement.name, "value": statement.value}
        if isinstance(statement, Checkpoint):
            return self.checkpoint(reason="statement")
        if isinstance(statement, ShowSlowQueries):
            return SlowQueryReport(
                records=self.slowlog.records(statement.limit),
                threshold_s=self.settings.slowlog_threshold_ms / 1e3,
                total_recorded=self.slowlog.recorded,
            )
        raise BlendHouseError(f"unhandled statement type {type(statement).__name__}")

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _execute_create(self, statement: CreateTable) -> TableSchema:
        index_spec: Optional[IndexSpec] = None
        if statement.indexes:
            if len(statement.indexes) > 1:
                raise SQLError("only one vector index per table is supported")
            index_def = statement.indexes[0]
            options = parse_index_options(",".join(index_def.options))
            dim = int(options.pop("dim", 0))
            metric = str(options.pop("metric", "l2")).lower()
            index_spec = IndexSpec(
                index_type=index_def.index_type,
                dim=dim or 1,  # inferred from the first insert when 0
                metric=metric,
                params=options,
                name=index_def.name,
                column=index_def.column,
            )
            if not dim:
                index_spec.dim = 1  # placeholder until inference
        schema = TableSchema.from_ddl(
            statement.name,
            statement.columns,
            index_spec=index_spec,
            order_by=statement.order_by,
            partition_by=statement.partition_by,
            cluster_by=statement.cluster_by,
            cluster_buckets=statement.cluster_buckets,
        )
        if index_spec is not None:
            schema.vector_dim = index_spec.dim if index_spec.dim > 1 else 0
        created = schema.name not in self.catalog
        entry = self.catalog.create_table(schema, if_not_exists=statement.if_not_exists)
        if schema.name not in self._tables:
            self._attach_runtime(entry)
        if created:
            self.plan_cache.invalidate()
            self._durability.log_create(entry.schema)
            self._durability.statement_boundary()
        return schema

    def _execute_drop(self, statement: DropTable) -> bool:
        dropped = self.catalog.drop_table(statement.name, if_exists=statement.if_exists)
        if dropped:
            # Prepared templates are bound against the schema that just died.
            self.plan_cache.invalidate()
            # The drop record must be durable before any payload dies.
            self._durability.log_drop(statement.name)
            self._durability.statement_boundary()
            self._drop_table(statement.name)
            # Deletion is only safe once no checkpoint references the
            # payloads; checkpointing now makes it immediate.
            self._durability.checkpoint(reason="drop")
        return dropped

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _execute_insert(self, statement: Insert) -> IngestReport:
        runtime = self.table(statement.table)
        schema = runtime.entry.schema
        if statement.infile is not None:
            from repro.ingest.csvload import read_csv_rows

            rows = read_csv_rows(
                statement.infile, schema, statement.columns or None
            )
        else:
            columns = statement.columns or schema.column_order
            if len(columns) != len(schema.column_order) or set(columns) != set(schema.column_order):
                raise SQLError("INSERT must provide every column exactly once")
            rows = [dict(zip(columns, row)) for row in statement.rows]
        return self._ingested(runtime, runtime.writer.ingest_rows(rows))

    def insert_rows(self, table: str, rows: List[Dict[str, Any]]) -> IngestReport:
        """Programmatic bulk insert of row dicts."""
        runtime = self.table(table)
        return self._ingested(runtime, runtime.writer.ingest_rows(rows))

    def insert_columns(
        self, table: str, scalar_columns: Dict[str, Any], vectors: np.ndarray
    ) -> IngestReport:
        """Programmatic columnar bulk load (the CSV INFILE fast path)."""
        runtime = self.table(table)
        return self._ingested(
            runtime, runtime.writer.ingest_columns(scalar_columns, vectors)
        )

    def _ingested(self, runtime: TableRuntime, report: IngestReport) -> IngestReport:
        """The tail of every ingest: fence cached plans, maybe compact,
        and commit the statement."""
        self.plan_cache.invalidate_plans()
        self._maybe_compact(runtime)
        self._durability.statement_boundary()
        return report

    def compact(self, table: str) -> List[Any]:
        """Run compaction to completion for ``table``."""
        runtime = self.table(table)
        results = runtime.compactor.compact_all()
        if results:
            self.plan_cache.invalidate_plans()
            self._durability.statement_boundary()
            self._durability.checkpoint(reason="compaction")
        return results

    def _maybe_compact(self, runtime: TableRuntime) -> None:
        if self.settings.auto_compaction:
            runtime.compactor.run_once()

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def cost_params(self, schema: TableSchema) -> CostModelParams:
        """The cost-model constants at ``schema``'s vector dimension,
        built once a dimension: the engine's cost model is frozen and
        never replaced."""
        dim = max(schema.vector_dim, 1)
        params = self._cost_params.get(dim)
        if params is None:
            params = self._cost_params[dim] = CostModelParams.from_device_model(
                self.cost, dim
            )
        return params

    def _optimizer(self, schema: TableSchema) -> Optimizer:
        return Optimizer(
            self.cost_params(schema),
            enable_cbo=self.settings.enable_cbo,
            enable_short_circuit=self.settings.enable_short_circuit,
            forced_strategy=self.settings.forced_strategy,
        )

    def _search_param_overrides(self) -> Dict[str, Any]:
        overrides: Dict[str, Any] = {}
        if self.settings.ef_search is not None:
            overrides["ef_search"] = self.settings.ef_search
        if self.settings.nprobe is not None:
            overrides["nprobe"] = self.settings.nprobe
        return overrides

    def _plan_select(
        self, query: _SelectQuery, version: Optional[int] = None
    ) -> PhysicalPlan:
        """Plan one SELECT against manifest ``version``.

        ``version`` is the manifest id the query is pinned to; when the
        caller has not pinned a snapshot yet it defaults to the
        statement's ``AS OF`` target or the table's current manifest.
        Physical plans are cached by (version, signature), so commits
        implicitly fence stale ones.
        """
        if version is None:
            version = query.as_of
            if version is None:
                version = self.table(query.select.table).manager.manifest_id
        with self.tracer.span("plan", manifest_id=version) as span:
            plan = self._plan_select_traced(query, span, version)
            span.set_tag("strategy", plan.strategy.value)
            return plan

    def _plan_rebindable(self, template: PhysicalPlan) -> bool:
        """Whether a cached plan can skip re-optimization entirely.

        True when the strategy is fully determined by the parameterized
        query *shape* — pure vector (ANN_ONLY), pure scalar
        (SCALAR_ONLY), or range — so fresh literals cannot change it.
        CBO-costed plans re-choose (literal selectivity can flip the
        strategy, the Fig 15 behaviour), and an active forced-strategy
        override disables rebinding because SET changes do not fence the
        cache.
        """
        if self.settings.forced_strategy is not None:
            return False
        if template.cbo_used:
            return False
        return template.strategy in (
            ExecutionStrategy.ANN_ONLY,
            ExecutionStrategy.SCALAR_ONLY,
            ExecutionStrategy.RANGE,
        )

    def _plan_select_traced(
        self, query: _SelectQuery, span: Span, version: int
    ) -> PhysicalPlan:
        runtime = self.table(query.select.table)
        schema = runtime.entry.schema
        signature = query.scan.signature
        cached = None
        if self.settings.enable_plan_cache:
            cached = self.plan_cache.lookup(signature, version)
            span.set_tag("plan_cache", "hit" if cached is not None else "miss")
        else:
            span.set_tag("plan_cache", "disabled")
        if query.prepared is not None:
            logical = query.prepared.bind(query.scan, schema)
        else:
            logical = apply_rules(bind_select(query.select, schema))
            if self.settings.enable_plan_cache:
                prepared = prepare_select(query.select, schema, logical, query.scan)
                if prepared is not None:
                    self.plan_cache.store_template(signature, prepared)
        optimizer = self._optimizer(schema)
        index_spec = schema.index_spec
        if (
            logical.distance is not None
            and index_spec is not None
            and logical.distance.metric != index_spec.metric
        ):
            # The index orders candidates under a different metric than
            # the query asks for; its results would be wrong.  Plan
            # against no index: the exact kernel (a FLAT view of each
            # segment) supports every metric.
            index_spec = None
            self.metrics.incr("planner.metric_mismatch_fallbacks")
        if cached is not None and self._plan_rebindable(cached):
            # Rebind fast path: graft the fresh literals onto the cached
            # template without re-running the optimizer.  Search params
            # are recomputed from defaults + current SET overrides so a
            # `SET ef_search` between hits is honoured without fencing.
            plan = cached.rebound(logical)
            params = dict(optimizer.default_search_params(index_spec))
            params.update(self._search_param_overrides())
            plan.search_params = params
            plan.short_circuited = (
                plan.strategy is ExecutionStrategy.ANN_ONLY
                and self.settings.enable_short_circuit
            )
            plan.use_index = not (index_spec is None and schema.index_spec is not None)
            span.set_tag("plan_cache", "rebind")
            self.clock.advance(self.cost.plan_rebind_overhead_s)
            self.metrics.incr("planner.rebinds")
            self.metrics.incr("plan_cache.hits")
            return plan
        plan = optimizer.choose(
            logical,
            runtime.entry.statistics,
            index_spec,
            search_params=self._search_param_overrides(),
        )
        if index_spec is None and schema.index_spec is not None:
            plan.use_index = False
        if cached is not None:
            # Plan-cache hit: the cached template is *adapted* to the new
            # literals (the paper's extended plan matching), so only the
            # cheap parameter-binding overhead is charged.
            self.clock.advance(self.cost.plan_cached_overhead_s)
            self.metrics.incr("plan_cache.hits")
            return plan
        if self.settings.enable_plan_cache:
            self.metrics.incr("plan_cache.misses")
        if plan.short_circuited:
            self.clock.advance(self.cost.plan_cached_overhead_s)
        else:
            self.clock.advance(self.cost.plan_overhead_s)
        if self.settings.enable_plan_cache:
            self.plan_cache.store(signature, plan, version)
        self.metrics.incr("planner.optimizations")
        return plan

    def _exec_context(self, runtime: TableRuntime, snapshot: Any) -> ExecContext:
        """What a group's scans and merges charge with, resolving indexes
        at the pinned ``snapshot`` (a warehouse swaps in its workers'
        resolvers)."""
        reader = self.reader
        if not self.settings.enable_read_opt:
            reader = ColumnReader(self.clock, self.cost, self.metrics, read_opt=False)
        return ExecContext(
            clock=self.clock,
            cost=self.cost,
            params=self.cost_params(runtime.entry.schema),
            reader=reader,
            resolve_index=runtime.snapshot_resolver(snapshot),
            metrics=self.metrics,
            tracer=self.tracer,
        )

    def _prune(
        self, runtime: TableRuntime, plan: PhysicalPlan, snapshot: Any,
        bitmaps: Dict[str, Any],
    ) -> Tuple[List[Segment], List[Segment]]:
        """Scheduling-phase pruning of the pinned ``snapshot``: the
        (scheduled, reserve) waves, their delete bitmaps captured into
        ``bitmaps`` (one dict across all the plans of a group)."""
        with self.tracer.span("prune") as span:
            total = len(snapshot)
            metas = prune_segments_scalar(
                snapshot.metas(), plan.logical.scalar_predicate
            )
            self.metrics.incr("pruning.scalar_kept", len(metas))
            span.set_tag("segments_total", total)
            span.set_tag("scalar_kept", len(metas))
            reserve_metas: List[Any] = []
            if runtime.entry.schema.cluster_buckets > 0 and plan.logical.is_vector_query:
                keep = max(1, self.settings.semantic_prune_keep)
                metas, reserve_metas = select_semantic_candidates(
                    metas, plan.logical.distance.query_vector, keep
                )
                self.metrics.incr("pruning.semantic_kept", len(metas))
                span.set_tag("semantic_kept", len(metas))
                span.set_tag("reserve", len(reserve_metas))
            scheduled, reserve = (
                [snapshot.segment(meta.segment_id) for meta in wave]
                for wave in (metas, reserve_metas)
            )
            for segment in scheduled + reserve:
                if segment.segment_id not in bitmaps:
                    bitmaps[segment.segment_id] = snapshot.bitmap(segment.segment_id)
            return scheduled, reserve

    def _needs_widening(
        self, plan: PhysicalPlan, reserve: List[Segment], result: QueryResult
    ) -> bool:
        """Runtime-adaptive widening: the centroid ranking under-estimated
        and the scheduled wave came back short of the requested rows."""
        return bool(
            reserve
            and plan.logical.is_vector_query
            and len(result) < (plan.logical.k or 0) - plan.logical.offset
        )

    # ------------------------------------------------------------------
    # The SELECT lifecycle
    # ------------------------------------------------------------------
    def select_stages(
        self, sql: str, cancel: Optional[CancelToken] = None,
        tenant: str = "default", lane: str = "interactive",
    ) -> Iterator[SelectStage]:
        """Run one SELECT as a generator of resumable stages.

        The one implementation of a SELECT: :meth:`execute` and ``EXPLAIN
        ANALYZE`` drain it on the calling thread, the serving tier drives
        it stage by stage.  Each ``yield`` is a point where the driver
        turns ``advance_s`` into time on its own timeline: stage costs
        are *captured*, not applied to the shared clock, so many queries
        can be in flight at once.  The snapshot is pinned before the
        first stage and released in a ``finally``, so closing the
        generator at any stage never leaks a pinned manifest.  Captures
        open and close *between* yields, and the query's long-lived
        spans are off the tracer's thread-local stack while suspended —
        an interleaved query on the same thread would corrupt either.

        Stages, each advancing the time it names: ``plan`` (planning and
        pruning) → ``scan`` (the scheduled wave's makespan) → ``widen``
        (the reserve wave's makespan, when adaptive widening fires) →
        ``finish`` with the merge cost, the :class:`QueryResult` and the
        flight payload.  ``result.simulated_seconds`` is the execute
        phase only (scan + widen makespans + merges).  The query records
        the one ``query`` span tree :meth:`execute` records; a segment's
        cost is its ``segment_scan`` span's duration.

        The scan backend is ``self._backend(tenant, lane)``, asked after
        the statement parses (on a fleet, routing on the clock of the
        first step).  A backend has a ``name`` (the serving warehouse,
        None in this process) and ``scan(plans, waves, bitmaps,
        snapshot, ctx, cancel)``: it takes a group's plans (one here,
        more for a batch), the wave of segments each one probes and the
        group's :class:`ExecContext`, scans them as one
        :class:`~repro.executor.parallel.GroupScan`, checking ``cancel``
        before every segment, and returns ``(partials per plan,
        makespan_s)``.  The lifecycle merges every plan's partials
        itself, with the same context.
        """
        tracer = self.tracer
        root = tracer.open("query")
        try:
            with tracer.under(root), tracer.span("parse"):
                statement, query = self._parse(sql)
            root.set_tag("statement", type(statement).__name__)
            if not isinstance(statement, Select):
                raise SQLError("staged serving execution supports SELECT only")
            yield from self._lifecycle(
                [query], root, self._backend(tenant, lane), cancel
            )
        finally:
            tracer.finish(root)

    def _lifecycle(
        self, queries: List[_SelectQuery], root: Span, backend: Any,
        cancel: Optional[CancelToken] = None, rows: Optional[np.ndarray] = None,
    ) -> Iterator[SelectStage]:
        """The stages of one *group* of SELECTs, recorded under the
        caller's open ``root`` span (which the caller finishes).

        A single SELECT is a group of one.  A batch is ``queries`` over
        one table and one ``AS OF`` target — or one query whose plan is
        rebound onto every row of ``rows`` — and shares the pin, the
        bitmaps, every wave and the ``execute`` span; each of its members
        is pruned, widened, merged, accounted and finished (one
        ``finish`` stage each) on its own.
        """
        tracer = self.tracer
        runtime = self.table(queries[0].select.table)
        cache_before = self._cache_counters()
        if backend.name is not None:
            root.set_tag("warehouse", backend.name)
        # Pin one manifest for the group's whole lifetime: planning,
        # pruning, bitmap capture, every worker's index resolution and
        # the widening wave read this version, so concurrent commits are
        # invisible and ``AS OF <manifest_id>`` replays history exactly.
        snap = runtime.manager.snapshot(queries[0].as_of)
        execute = None
        try:
            if cancel is not None:
                cancel.raise_if_cancelled()
            bitmaps: Dict[str, Any] = {}
            with tracer.under(root), self.clock.capturing() as captured:
                plans = self._plan_group(queries, rows, snap.manifest_id)
                pruned = [
                    self._prune(runtime, plan, snap, bitmaps) for plan in plans
                ]
            yield SelectStage("plan", captured.total)
            ctx = self._exec_context(runtime, snap)
            execute = tracer.open("execute", root, manifest_id=snap.manifest_id)
            members = range(len(plans))
            partials: List[List[Any]] = [[] for _ in members]
            results: List[Any] = [None] * len(plans)
            finish_costs = [0.0] * len(plans)
            elapsed = 0.0
            for wave_name, wave in (("scan", 0), ("widen", 1)):
                if wave_name == "widen":
                    members = [
                        member for member in members
                        if self._needs_widening(
                            plans[member], pruned[member][1], results[member]
                        )
                    ]
                    if not members:
                        break
                    self.metrics.incr("pruning.widenings", len(members))
                    execute.set_tag("adaptive_widened", True)
                with tracer.under(execute):
                    wave_partials, makespan = backend.scan(
                        [plans[member] for member in members],
                        [pruned[member][wave] for member in members],
                        bitmaps, snap, ctx, cancel,
                    )
                elapsed += makespan
                yield SelectStage(wave_name, makespan)
                if cancel is not None:
                    cancel.raise_if_cancelled()
                for member, scans in zip(members, wave_partials):
                    partials[member] += scans  # one per segment scanned
                    with tracer.under(execute), self.clock.capturing() as captured:
                        results[member] = merge_and_project(
                            plans[member], partials[member], ctx,
                            len(partials[member]),
                        )
                    finish_costs[member] += captured.total
            elapsed += sum(finish_costs)
            execute.set_tag("rows", sum(map(len, results)))
            self.metrics.incr("queries", len(plans))
            for plan, result, finish_cost in zip(plans, results, finish_costs):
                # A batched query's latency is its share of the batch.
                result.simulated_seconds = elapsed / len(plans)
                self.metrics.record_latency(
                    "query.latency", result.simulated_seconds
                )
                yield SelectStage(
                    "finish", finish_cost, result=result,
                    flight={
                        "manifest_id": snap.manifest_id,
                        "warehouse": backend.name,
                        "plan": plan,
                        "cache_before": cache_before,
                        "trace": root,
                    },
                )
        finally:
            snap.release()
            if execute is not None:
                tracer.finish(execute)

    def _drain(
        self, sqls: Sequence[str], stages: Iterator[SelectStage]
    ) -> List[SelectStage]:
        """Run a staged group to completion on the calling thread: each
        stage's ``advance_s`` goes onto the shared clock and every
        finished query (its ``finish`` stage, returned in order) is
        offered to the slow-query log under its own statement."""
        finished = []
        with closing(stages):
            for stage in stages:
                self.clock.advance(stage.advance_s)
                if stage.result is not None:
                    finished.append(stage)
        for sql, stage in zip(sqls, finished):
            self.offer_flight(sql, stage.result.simulated_seconds, stage.flight)
        return finished

    # ------------------------------------------------------------------
    # Flight recorder capture
    # ------------------------------------------------------------------
    def _cache_counters(self) -> Dict[str, int]:
        """Cache-tier counters the flight record diffs around a query."""
        return {
            "memory_hits": self.metrics.count("index_cache.memory_hits"),
            "disk_hits": self.metrics.count("index_cache.disk_hits"),
            "remote_fetches": self.metrics.count("index_cache.remote_fetches"),
        }

    def offer_flight(
        self, sql: str, latency_s: float, flight: Dict[str, Any], **serving: Any
    ) -> None:
        """Offer one finished SELECT to the slow-query log.

        The log records it as ``slow`` at or over ``slowlog_threshold_ms``
        and as ``sampled`` when it is every ``slowlog_sample_every``-th
        query offered.  ``flight`` is the final stage's payload; the
        record (plan payload, cache deltas, the query's span tree —
        serialized at export time) is only built for a recorded query.
        ``serving`` carries the serving tier's ``lane`` / ``tenant`` /
        ``queue_wait_s``.
        """
        seen = self.slowlog.offer()
        every = self.settings.slowlog_sample_every
        if latency_s >= self.settings.slowlog_threshold_ms / 1e3:
            reason = "slow"
        elif every > 0 and seen % every == 0:
            reason = "sampled"
        else:
            return
        plan = flight["plan"]
        before, after = flight["cache_before"], self._cache_counters()
        self.slowlog.append(FlightRecord(
            timestamp=self.clock.now,
            sql=sql,
            latency_s=latency_s,
            reason=reason,
            manifest_id=flight["manifest_id"],
            plan={
                "strategy": plan.strategy.value,
                "use_index": plan.use_index,
                "search_params": dict(plan.search_params),
                "cbo_used": plan.cbo_used,
                "short_circuited": plan.short_circuited,
                "sigma": plan.sigma,
                "estimated_selectivity": plan.estimated_selectivity,
                # The CBO alternatives the chosen plan beat.
                "alternatives": dict(plan.estimated_costs),
            },
            cache={key: after[key] - before[key] for key in after},
            trace=flight["trace"],
            **serving,
        ))

    # ------------------------------------------------------------------
    # Batched (nq > 1) queries: groups of more than one
    # ------------------------------------------------------------------
    _METRIC_FUNCTIONS = {"l2": "L2Distance", "ip": "IPDistance",
                         "cosine": "CosineDistance"}

    def search_batch(
        self,
        table: str,
        queries: Any,
        k: int = 10,
        output_columns: Sequence[str] = ("id",),
        metric: Optional[str] = None,
    ) -> BatchExecutionResult:
        """Top-``k`` vector search for every row of ``queries`` at once.

        The batch is planned once (one optimizer pass, rebound per query
        vector) and scans where a SELECT scans: each scheduled segment is
        scanned a single time for all queries probing it — brute-force
        and IVF distance computation run as one ``(nq, n)`` kernel.
        Results match issuing the queries one at a time through SQL
        (bit-for-bit under the ``l2`` metric).
        """
        query_matrix = np.asarray(queries, dtype=np.float32)
        if query_matrix.ndim == 1:
            query_matrix = query_matrix.reshape(1, -1)
        schema = self.table(table).entry.schema
        if metric is None:
            metric = schema.index_spec.metric if schema.index_spec else "l2"
        function = self._METRIC_FUNCTIONS.get(metric)
        if function is None:
            raise SQLError(f"unknown metric {metric!r} for batched search")
        if not len(query_matrix):
            return BatchExecutionResult([])
        # The batch's shape as SQL.  Its literal only carries the
        # dimension: the lifecycle rebinds the plan onto every row.
        literal = "[" + ",".join(["0"] * query_matrix.shape[1]) + "]"
        columns = ", ".join(output_columns)
        sql = (
            f"SELECT {columns}, dist FROM {table} ORDER BY "
            f"{function}({schema.vector_column}, {literal}) AS dist LIMIT {int(k)}"
        )
        with self.tracer.span("query", queries=len(query_matrix)) as root:
            with self.tracer.span("parse"):
                statement, query = self._parse(sql)
            root.set_tag("statement", type(statement).__name__)
            return self._submit_batch(
                root, [sql] * len(query_matrix), [query], query_matrix
            )

    def execute_batch(self, sqls: Sequence[str]) -> List[Any]:
        """Execute several SQL statements submitted as one batch.

        When every statement is a pure vector top-k SELECT with the same
        shape (same table and ``AS OF`` target, k, metric, projection; no
        scalar predicate or distance range), the whole batch runs as one
        group of the SELECT lifecycle.  Anything else falls back to
        sequential execution, statement by statement.
        """
        if not sqls:
            return []
        with self.tracer.span("query", queries=len(sqls)) as root:
            with self.tracer.span("parse"):
                parsed = [self._parse(sql) for sql in sqls]
            queries = [query for _, query in parsed]
            # One group reads one table at one manifest; whether its
            # plans are one shape is known once they are made.
            if all(isinstance(statement, Select) for statement, _ in parsed) and (
                len({(query.select.table, query.as_of) for query in queries}) == 1
            ):
                root.set_tag("statement", "Select")
                try:
                    return self._submit_batch(root, sqls, queries).results
                except _NotOneBatch:
                    pass
        # Mixed or non-batchable statements: sequential fallback.
        self.metrics.incr("batch.fallbacks")
        return [self.execute(sql) for sql in sqls]

    def _submit_batch(
        self, root: Span, sqls: Sequence[str], queries: List[_SelectQuery],
        rows: Optional[np.ndarray] = None,
    ) -> BatchExecutionResult:
        """Drain one group through the lifecycle as one batch submission,
        scanning where a SELECT from the default tenant and lane scans."""
        backend = self._backend("default", "interactive")
        finished = self._drain(
            sqls, self._lifecycle(queries, root, backend, rows=rows)
        )
        results = [stage.result for stage in finished]
        batch = BatchExecutionResult(
            results, sum(result.simulated_seconds for result in results)
        )
        self.metrics.incr("batch.submissions")
        self.metrics.incr("batch.queries", len(results))
        self.metrics.record_latency("batch.latency", batch.simulated_seconds)
        return batch

    def _plan_group(
        self, queries: List[_SelectQuery], rows: Optional[np.ndarray], version: int
    ) -> List[PhysicalPlan]:
        """Every plan of a group, made against the pinned ``version``:
        one per query, or the one query's plan rebound onto each of
        ``rows``.  More than one must be same-shape pure vector top-k —
        what the batched segment kernel can scan together.

        Raises
        ------
        _NotOneBatch
            If they are not.
        """
        plans = [self._plan_select(query, version) for query in queries]
        if rows is not None:
            (template,) = plans
            distance = template.logical.distance
            plans = [
                template.rebound(replace(
                    template.logical, distance=replace(distance, query_vector=row)
                ))
                for row in rows
            ]
        if len(plans) == 1:
            return plans  # a group of one scans with any strategy
        head = plans[0].logical
        for plan in plans:
            logical = plan.logical
            if (
                not logical.is_vector_query
                or logical.scalar_predicate is not None
                or logical.distance_range is not None
                or logical.offset
                or logical.k != head.k
                or logical.distance.metric != head.distance.metric
                or logical.output_columns != head.output_columns
            ):
                raise _NotOneBatch
        return plans

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def _execute_explain(
        self, query: _SelectQuery, root: Span, backend: Optional[Any]
    ) -> ExplainResult:
        """EXPLAIN plans the query; EXPLAIN ANALYZE (a ``backend`` given)
        runs it there, as the SELECT itself would run."""
        root.set_tag("explain", "plan" if backend is None else "analyze")
        if backend is not None:
            (stage,) = self._drain([query.sql], self._lifecycle([query], root, backend))
            return ExplainResult(
                sql=query.sql, analyze=True, plan=stage.flight["plan"],
                trace=root, result=stage.result,
            )
        plan = self._plan_select(query)
        return ExplainResult(sql=query.sql, analyze=False, plan=plan, trace=root)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self, reason: str = "manual") -> Dict[str, Any]:
        """Force a durability checkpoint (also reachable via CHECKPOINT SQL).

        Serializes the catalog and every table's current manifest to the
        object store, swaps the checkpoint pointer atomically, and
        truncates the WAL up to the checkpointed LSN.
        """
        info = self._durability.checkpoint(reason=reason)
        if info is None:
            return {"checkpoint": None}
        return {
            "checkpoint": info.checkpoint_id,
            "wal_lsn": info.wal_lsn,
            "tables": info.tables,
            "bytes": info.nbytes,
            "reason": info.reason,
        }

    def durability_status(self) -> Dict[str, Any]:
        """WAL/checkpoint state for introspection and tests."""
        return self._durability.status()

    def restart(self) -> "BlendHouse":
        """Simulate a clean node restart: cold boot from shared storage.

        Flushes the WAL (so nothing acknowledged is lost), then builds a
        fresh engine of the same class over the same object store via
        :meth:`recover`; a read side comes back cold, at its constructor
        defaults.  The old instance must not be used afterwards.
        """
        self._durability.statement_boundary()
        return type(self).recover(
            self.store,
            ingest_config=self._ingest_config,
            durability=self._durability.config,
        )

    @classmethod
    def recover(
        cls,
        store: ObjectStore,
        ingest_config: Optional[IngestConfig] = None,
        durability: Optional[DurabilityConfig] = None,
        settings: Optional[EngineSettings] = None,
    ) -> "BlendHouse":
        """Cold-start a BlendHouse node from a surviving object store.

        Loads the latest checkpoint, replays the WAL tail, and returns a
        fully usable engine.  The :class:`RecoveryReport` is available as
        ``db.last_recovery``.
        """
        db = cls(
            store=store,
            ingest_config=ingest_config,
            settings=settings,
            durability=durability,
        )
        with db._durability.suspended():
            report = run_recovery(db)
        db.last_recovery = report
        return db

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def export_metrics(self) -> MetricsExporter:
        """The public metrics surface: snapshot dict / Prometheus text."""
        return MetricsExporter(
            self.metrics, self.tracer, events=self.events, slowlog=self.slowlog
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self, table: str) -> Dict[str, Any]:
        """Human-readable summary of a table's state."""
        runtime = self.table(table)
        schema = runtime.entry.schema
        return {
            "table": table,
            "columns": {name: ctype.value for name, ctype in schema.columns.items()},
            "vector_column": schema.vector_column,
            "vector_dim": schema.vector_dim,
            "index": schema.index_spec.index_type if schema.index_spec else None,
            "segments": len(runtime.manager),
            "rows_alive": runtime.manager.alive_rows(),
            "rows_deleted": runtime.manager.deleted_rows(),
            "cluster_buckets": schema.cluster_buckets,
            "manifest_id": runtime.manager.manifest_id,
            "retained_manifests": runtime.manager.store.retained_ids,
            "pinned_snapshots": runtime.manager.store.pinned_count,
        }

    @staticmethod
    def feature_matrix() -> Dict[str, Any]:
        """The Table I capability row for BlendHouse (introspection)."""
        from repro.vindex.registry import registered_types

        return {
            "general_purpose": True,
            "disaggregated_architecture": True,
            "full_sql_support": True,
            "filtered_search": True,
            "iterative_search": True,
            "similarity_based_partition": True,
            "auto_index": True,
            "index_algorithms": registered_types(),
        }

