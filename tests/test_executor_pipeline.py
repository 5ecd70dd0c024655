"""Tests for per-segment execution and the merge/projection pipeline."""

import numpy as np
import pytest

from repro.catalog.schema import TableSchema
from repro.executor.columnio import ColumnReader
from repro.executor.pipeline import ExecContext, referenced_columns
from repro.observe.trace import Tracer
from repro.planner.cost import CostModelParams
from repro.planner.logical import bind_select
from repro.planner.optimizer import ExecutionStrategy, Optimizer, PhysicalPlan
from repro.planner.rules import apply_rules
from repro.simulate.costmodel import DeviceCostModel
from repro.sqlparser.ast_nodes import ColumnDef
from repro.sqlparser.parser import parse_statement
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment
from repro.vindex.flat import FlatIndex
from repro.vindex.registry import IndexSpec
from tests.helpers import run_plan_on_segments

DIM = 8


@pytest.fixture
def schema():
    return TableSchema.from_ddl(
        "t",
        [
            ColumnDef("id", "UInt64"),
            ColumnDef("views", "UInt64"),
            ColumnDef("embedding", "Array", ("Float32",)),
        ],
        index_spec=IndexSpec(index_type="FLAT", dim=DIM, column="embedding"),
    )


@pytest.fixture
def world(clock, cost, schema):
    """Two segments with FLAT indexes plus an exec context."""
    rng = np.random.default_rng(0)
    segments, indexes, bitmaps = [], {}, {}
    for part in range(2):
        n = 100
        vectors = rng.normal(size=(n, DIM)).astype(np.float32)
        segment = Segment.from_columns(
            f"t/seg-{part}", "t",
            {
                "id": np.arange(part * n, (part + 1) * n, dtype=np.uint64),
                "views": rng.integers(0, 1000, size=n).astype(np.uint64),
            },
            vectors,
        )
        segment.meta.index_type = "FLAT"
        index = FlatIndex(dim=DIM)
        index.add_with_ids(vectors, np.arange(n))
        segments.append(segment)
        indexes[segment.segment_id] = index
        bitmaps[segment.segment_id] = DeleteBitmap(n)
    ctx = ExecContext(
        clock=clock,
        cost=cost,
        params=CostModelParams.from_device_model(cost, DIM),
        reader=ColumnReader(clock, cost),
        resolve_index=lambda seg: indexes[seg.segment_id],
        tracer=Tracer(clock),
    )
    return segments, bitmaps, ctx


def plan_for(sql, schema, strategy=None):
    logical = apply_rules(bind_select(parse_statement(sql), schema))
    if strategy is not None:
        return PhysicalPlan(logical=logical, strategy=strategy)
    params = CostModelParams.from_device_model(DeviceCostModel(), DIM)
    from repro.catalog.statistics import TableStatistics

    stats = TableStatistics()
    stats.row_count = 200
    return Optimizer(params).choose(logical, stats, schema.index_spec)


VEC = "[" + ",".join(["0.1"] * DIM) + "]"


def global_truth(segments, query, k, predicate=None):
    rows = []
    for segment in segments:
        ids = segment.scalar_column("id")
        views = segment.scalar_column("views")
        for offset in range(segment.row_count):
            if predicate is not None and not predicate(views[offset]):
                continue
            dist = float(np.linalg.norm(segment.vectors()[offset] - np.asarray(query)))
            rows.append((dist, int(ids[offset])))
    rows.sort()
    return [row_id for _, row_id in rows[:k]]


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy",
        [
            ExecutionStrategy.BRUTE_FORCE,
            ExecutionStrategy.PRE_FILTER,
            ExecutionStrategy.POST_FILTER,
        ],
    )
    def test_all_strategies_agree_on_flat_index(self, world, schema, strategy):
        """With an exact index, every strategy returns the same top-k."""
        segments, bitmaps, ctx = world
        sql = (
            f"SELECT id, dist FROM t WHERE views < 800 "
            f"ORDER BY L2Distance(embedding, {VEC}) AS dist LIMIT 10"
        )
        plan = plan_for(sql, schema, strategy)
        result = run_plan_on_segments(plan, segments, bitmaps, ctx)
        query = [0.1] * DIM
        expected = global_truth(segments, query, 10, predicate=lambda v: v < 800)
        assert [row[0] for row in result.rows] == expected

    def test_ann_only(self, world, schema):
        segments, bitmaps, ctx = world
        sql = f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 7"
        plan = plan_for(sql, schema)
        result = run_plan_on_segments(plan, segments, bitmaps, ctx)
        assert [row[0] for row in result.rows] == global_truth(
            segments, [0.1] * DIM, 7
        )

    def test_scalar_only(self, world, schema):
        segments, bitmaps, ctx = world
        plan = plan_for("SELECT id FROM t WHERE views < 100 LIMIT 1000", schema)
        result = run_plan_on_segments(plan, segments, bitmaps, ctx)
        for segment in segments:
            views = segment.scalar_column("views")
            ids = segment.scalar_column("id")
            expected_ids = {int(ids[i]) for i in range(segment.row_count) if views[i] < 100}
            got = {row[0] for row in result.rows}
            assert expected_ids <= got

    def test_range_strategy(self, world, schema):
        segments, bitmaps, ctx = world
        plan = plan_for(
            f"SELECT id FROM t WHERE L2Distance(embedding, {VEC}) < 2.0", schema
        )
        assert plan.strategy is ExecutionStrategy.RANGE
        result = run_plan_on_segments(plan, segments, bitmaps, ctx)
        for segment in segments:
            ids = segment.scalar_column("id")
            for offset in range(segment.row_count):
                dist = float(np.linalg.norm(segment.vectors()[offset] - 0.1))
                inside = dist < 2.0
                present = int(ids[offset]) in {row[0] for row in result.rows}
                assert inside == present


class TestDeletes:
    def test_deleted_rows_invisible_everywhere(self, world, schema):
        segments, bitmaps, ctx = world
        # Find the global top-1 and delete it.
        top = global_truth(segments, [0.1] * DIM, 1)[0]
        for segment in segments:
            ids = segment.scalar_column("id")
            hit = np.flatnonzero(ids == top)
            if hit.size:
                bitmaps[segment.segment_id].mark_deleted(hit.tolist())
        sql = f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 5"
        plan = plan_for(sql, schema)
        result = run_plan_on_segments(plan, segments, bitmaps, ctx)
        assert top not in [row[0] for row in result.rows]


class TestProjectionAndMerge:
    def test_distance_column_and_alias(self, world, schema):
        segments, bitmaps, ctx = world
        sql = f"SELECT id, dist FROM t ORDER BY L2Distance(embedding, {VEC}) AS dist LIMIT 3"
        result = run_plan_on_segments(plan_for(sql, schema), segments, bitmaps, ctx)
        assert result.columns == ["id", "dist"]
        distances = [row[1] for row in result.rows]
        assert distances == sorted(distances)

    def test_offset_slicing(self, world, schema):
        segments, bitmaps, ctx = world
        base = f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 10"
        full = run_plan_on_segments(plan_for(base, schema), segments, bitmaps, ctx)
        shifted_sql = (
            f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 5 OFFSET 5"
        )
        shifted = run_plan_on_segments(
            plan_for(shifted_sql, schema), segments, bitmaps, ctx
        )
        assert [r[0] for r in shifted.rows] == [r[0] for r in full.rows[5:10]]

    def test_vector_column_projection(self, world, schema):
        segments, bitmaps, ctx = world
        sql = f"SELECT id, embedding FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 2"
        result = run_plan_on_segments(plan_for(sql, schema), segments, bitmaps, ctx)
        assert isinstance(result.rows[0][1], np.ndarray)

    def test_query_result_column_accessor(self, world, schema):
        segments, bitmaps, ctx = world
        sql = f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 4"
        result = run_plan_on_segments(plan_for(sql, schema), segments, bitmaps, ctx)
        assert len(result.column("id")) == 4
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            result.column("ghost")

    def test_simulated_time_charged(self, world, schema):
        segments, bitmaps, ctx = world
        sql = f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 4"
        result = run_plan_on_segments(plan_for(sql, schema), segments, bitmaps, ctx)
        assert result.simulated_seconds > 0
        assert result.segments_scanned == 2


class TestBruteForcePath:
    def test_missing_index_falls_back(self, world, schema, metrics):
        segments, bitmaps, _ = world
        from repro.simulate.clock import SimulatedClock

        fresh_clock = SimulatedClock()
        cost = DeviceCostModel()
        ctx = ExecContext(
            clock=fresh_clock,
            cost=cost,
            params=CostModelParams.from_device_model(cost, DIM),
            reader=ColumnReader(fresh_clock, cost),
            resolve_index=lambda seg: None,
            tracer=Tracer(fresh_clock),
            metrics=metrics,
        )
        sql = f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 5"
        result = run_plan_on_segments(plan_for(sql, schema), segments, bitmaps, ctx)
        assert [row[0] for row in result.rows] == global_truth(segments, [0.1] * DIM, 5)
        assert metrics.count("annscan.brute_force_rows") == 200


class TestHelpers:
    def test_referenced_columns(self):
        where = parse_statement(
            "SELECT id FROM t WHERE a < 5 AND b IN (1,2) OR NOT c BETWEEN d AND 9"
        ).where
        assert referenced_columns(where) == {"a", "b", "c", "d"}

    def test_referenced_columns_none(self):
        assert referenced_columns(None) == set()
