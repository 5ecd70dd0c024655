"""Tests for the cost-based optimizer."""

import numpy as np
import pytest

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics
from repro.planner.cost import CostModelParams
from repro.planner.logical import bind_select
from repro.planner.optimizer import (
    ExecutionStrategy,
    Optimizer,
    estimate_visit_fraction,
)
from repro.simulate.costmodel import DeviceCostModel
from repro.sqlparser.ast_nodes import ColumnDef
from repro.sqlparser.parser import parse_statement
from repro.vindex.registry import IndexSpec

VEC = "[1.0, 0.0, 0.0, 0.0]"


@pytest.fixture
def schema():
    return TableSchema.from_ddl(
        "docs",
        [
            ColumnDef("id", "UInt64"),
            ColumnDef("views", "UInt64"),
            ColumnDef("embedding", "Array", ("Float32",)),
        ],
        index_spec=IndexSpec(index_type="HNSW", dim=4, column="embedding"),
    )


@pytest.fixture
def stats():
    table_stats = TableStatistics()
    rng = np.random.default_rng(0)
    table_stats.refresh({"views": rng.integers(0, 1000, size=20_000)}, 20_000)
    return table_stats


def optimizer(**switches):
    params = CostModelParams.from_device_model(DeviceCostModel(), 4)
    return Optimizer(params, **switches)


def choose(sql, schema, stats, opt=None):
    logical = bind_select(parse_statement(sql), schema)
    return (opt or optimizer()).choose(logical, stats, schema.index_spec)


class TestStrategySelection:
    def test_scalar_only(self, schema, stats):
        plan = choose("SELECT id FROM docs WHERE views < 10 LIMIT 3", schema, stats)
        assert plan.strategy is ExecutionStrategy.SCALAR_ONLY

    def test_ann_only_short_circuits(self, schema, stats):
        plan = choose(
            f"SELECT id FROM docs ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats,
        )
        assert plan.strategy is ExecutionStrategy.ANN_ONLY
        assert plan.short_circuited

    def test_range_strategy(self, schema, stats):
        plan = choose(
            f"SELECT id FROM docs WHERE L2Distance(embedding, {VEC}) < 0.5",
            schema, stats,
        )
        assert plan.strategy is ExecutionStrategy.RANGE

    def test_brute_force_at_tiny_pass_rate(self, schema, stats):
        plan = choose(
            f"SELECT id FROM docs WHERE views < 5 "
            f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats,
        )
        assert plan.strategy is ExecutionStrategy.BRUTE_FORCE
        assert plan.estimated_selectivity < 0.05

    def test_post_filter_at_high_pass_rate(self, schema, stats):
        plan = choose(
            f"SELECT id FROM docs WHERE views < 995 "
            f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats,
        )
        assert plan.strategy is ExecutionStrategy.POST_FILTER

    def test_estimated_costs_recorded(self, schema, stats):
        plan = choose(
            f"SELECT id FROM docs WHERE views < 500 "
            f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats,
        )
        assert set(plan.estimated_costs) == {"A", "B", "C"}
        assert plan.cbo_used

    def test_prefilter_threshold_excludes_plan_b(self, schema, stats):
        # ~1% of 20k rows = 200 < threshold 1000 → B must not be chosen
        # even if its formula cost were minimal.
        plan = choose(
            f"SELECT id FROM docs WHERE views < 10 "
            f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats,
        )
        assert plan.strategy is not ExecutionStrategy.PRE_FILTER


class TestOverridesAndSwitches:
    def test_cbo_disabled_defaults_to_prefilter(self, schema, stats):
        opt = optimizer(enable_cbo=False)
        plan = choose(
            f"SELECT id FROM docs WHERE views < 995 "
            f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats, opt,
        )
        assert plan.strategy is ExecutionStrategy.PRE_FILTER
        assert not plan.cbo_used

    def test_forced_strategy(self, schema, stats):
        opt = optimizer(forced_strategy=ExecutionStrategy.POST_FILTER)
        plan = choose(
            f"SELECT id FROM docs WHERE views < 5 "
            f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats, opt,
        )
        assert plan.strategy is ExecutionStrategy.POST_FILTER

    def test_search_param_override(self, schema, stats):
        logical = bind_select(
            parse_statement(
                f"SELECT id FROM docs ORDER BY L2Distance(embedding, {VEC}) LIMIT 5"
            ),
            schema,
        )
        plan = optimizer().choose(
            logical, stats, schema.index_spec, search_params={"ef_search": 999}
        )
        assert plan.search_params["ef_search"] == 999

    def test_default_params_by_index_family(self, stats):
        ivf_schema = TableSchema.from_ddl(
            "t",
            [ColumnDef("id", "UInt64"), ColumnDef("embedding", "Array", ("Float32",))],
            index_spec=IndexSpec(index_type="IVFFLAT", dim=4, column="embedding"),
        )
        plan = choose(
            f"SELECT id FROM t ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            ivf_schema, stats,
        )
        assert "nprobe" in plan.search_params

    def test_rebound_preserves_strategy(self, schema, stats):
        plan = choose(
            f"SELECT id FROM docs WHERE views < 995 "
            f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5",
            schema, stats,
        )
        logical2 = bind_select(
            parse_statement(
                f"SELECT id FROM docs WHERE views < 990 "
                f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5"
            ),
            schema,
        )
        rebound = plan.rebound(logical2)
        assert rebound.strategy is plan.strategy
        assert rebound.logical is logical2


class TestVisitFraction:
    def test_graph_fraction_scales_with_ef(self):
        spec = IndexSpec(index_type="HNSW", dim=8)
        small = estimate_visit_fraction(spec, {"ef_search": 10}, 10_000, 10)
        large = estimate_visit_fraction(spec, {"ef_search": 100}, 10_000, 10)
        assert large > small

    def test_ivf_fraction_is_probe_ratio(self):
        spec = IndexSpec(index_type="IVFFLAT", dim=8, params={"nlist": 100})
        assert estimate_visit_fraction(spec, {"nprobe": 10}, 10_000, 10) == pytest.approx(0.1)

    def test_no_index_full_scan(self):
        assert estimate_visit_fraction(None, {}, 100, 10) == 1.0

    def test_clamped_to_one(self):
        spec = IndexSpec(index_type="HNSW", dim=8)
        assert estimate_visit_fraction(spec, {"ef_search": 10_000}, 100, 10) == 1.0
