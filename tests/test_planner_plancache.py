"""Tests for the parameterized plan cache and the statement signature
it is keyed on (``scan_statement(sql).signature``)."""

import pytest

from repro.planner.optimizer import ExecutionStrategy, PhysicalPlan
from repro.planner.plancache import PlanCache
from repro.sqlparser.lexer import scan_statement


def signature(sql):
    return scan_statement(sql).signature


def dummy_plan():
    return PhysicalPlan(logical=None, strategy=ExecutionStrategy.POST_FILTER)


class TestParameterize:
    def test_literals_abstracted(self):
        a = signature("SELECT id FROM t WHERE x < 5 LIMIT 10")
        b = signature("SELECT id FROM t WHERE x < 999 LIMIT 20")
        assert a == b

    def test_string_literals_abstracted(self):
        a = signature("SELECT id FROM t WHERE label = 'cat'")
        b = signature("SELECT id FROM t WHERE label = 'dog'")
        assert a == b

    def test_vector_literals_collapse(self):
        a = signature("SELECT id FROM t ORDER BY L2Distance(v, [1.0, 2.0]) LIMIT 5")
        b = signature(
            "SELECT id FROM t ORDER BY L2Distance(v, [9.9, 8.8, 7.7, 6.6]) LIMIT 5"
        )
        assert a == b

    def test_nested_vector_literals_collapse_to_one_slot(self):
        # Regression: nested brackets used to emit one "[?]" per nesting
        # level, so equivalent queries missed the cache.
        flat = signature("SELECT id FROM t ORDER BY L2Distance(v, [1.0, 2.0])")
        nested = signature(
            "SELECT id FROM t ORDER BY L2Distance(v, [[1.0, 2.0], [3.0, 4.0]])"
        )
        assert flat == nested
        assert flat.count("[?]") == 1

    def test_structure_distinguished(self):
        a = signature("SELECT id FROM t WHERE x < 5")
        b = signature("SELECT id FROM t WHERE x > 5")
        assert a != b

    def test_different_columns_distinguished(self):
        assert signature("SELECT a FROM t") != signature("SELECT b FROM t")

    def test_keyword_case_normalized(self):
        assert signature("select id from t") == signature("SELECT id FROM t")


class TestPlanCache:
    def test_lookup_miss_then_hit(self):
        cache = PlanCache()
        sql = "SELECT id FROM t WHERE x < 5 LIMIT 10"
        assert cache.lookup(signature(sql)) is None
        cache.store(signature(sql), dummy_plan())
        hit = cache.lookup(signature("SELECT id FROM t WHERE x < 77 LIMIT 3"))
        assert hit is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_eviction(self):
        cache = PlanCache(capacity=2)
        cache.store(signature("SELECT a FROM t"), dummy_plan())
        cache.store(signature("SELECT b FROM t"), dummy_plan())
        cache.store(signature("SELECT c FROM t"), dummy_plan())
        assert cache.lookup(signature("SELECT a FROM t")) is None
        assert cache.lookup(signature("SELECT c FROM t")) is not None

    def test_invalidate(self):
        cache = PlanCache()
        cache.store(signature("SELECT a FROM t"), dummy_plan())
        cache.invalidate()
        assert cache.lookup(signature("SELECT a FROM t")) is None

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_len(self):
        cache = PlanCache()
        cache.store(signature("SELECT a FROM t"), dummy_plan())
        assert len(cache) == 1
