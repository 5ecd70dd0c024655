"""Logical plan construction: binding Select ASTs to tables.

The enhanced planner "detects the hybrid query pattern and constructs the
logical plan by extracting relevant components, including scalar filters,
distance functions, top-k operations, and range constraints" (paper
§II-C).  The result is a :class:`HybridLogicalPlan` — a bound, normalized
form of the query that the rule-based and cost-based optimizers operate
on.

A query is *hybrid* when its single ORDER BY key is a distance function
over the table's vector column and a vector literal, ascending, with a
LIMIT.  Queries without that pattern are plain relational scans, which
the engine executes with the same machinery minus the ANN operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.schema import TableSchema
from repro.errors import BindError, PlannerError
from repro.sqlparser.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    Select,
    UnaryOp,
    VectorLiteral,
    distance_metric_for,
    fill_literals,
)
from repro.sqlparser.lexer import Scan


@dataclass
class DistanceExpr:
    """A bound distance function call: metric + query vector."""

    metric: str
    query_vector: np.ndarray
    alias: Optional[str] = None


@dataclass
class HybridLogicalPlan:
    """Bound logical plan for a (possibly hybrid) single-table query.

    ``scalar_predicate`` excludes any distance-range conjuncts, which
    move to ``distance_range`` (the range-pushdown rule); ``k`` is None
    for non-vector queries.
    """

    table: str
    output_columns: List[str]
    output_aliases: List[Optional[str]]
    scalar_predicate: Optional[Expression] = None
    distance: Optional[DistanceExpr] = None
    k: Optional[int] = None
    offset: int = 0
    distance_range: Optional[float] = None
    needs_vector_column: bool = False
    wants_distance_output: bool = False

    @property
    def is_vector_query(self) -> bool:
        """Whether an ANN operator is part of this plan."""
        return self.distance is not None

    @property
    def is_hybrid(self) -> bool:
        """Vector query with a scalar predicate attached."""
        return self.is_vector_query and self.scalar_predicate is not None


def _bind_distance_call(
    call: FunctionCall, schema: TableSchema
) -> Optional[Tuple[str, np.ndarray]]:
    """(metric, query_vector) if ``call`` is a distance over the vector
    column and a vector literal, else None."""
    metric = distance_metric_for(call.name)
    if metric is None or len(call.args) != 2:
        return None
    column_arg, vector_arg = call.args
    if not isinstance(column_arg, ColumnRef):
        return None
    if column_arg.name != schema.vector_column:
        raise BindError(
            f"distance function must target the vector column "
            f"{schema.vector_column!r}, got {column_arg.name!r}"
        )
    if not isinstance(vector_arg, VectorLiteral):
        raise BindError("distance function needs a vector literal argument")
    return metric, _query_vector(vector_arg.values, schema)


def _query_vector(values: Sequence[float], schema: TableSchema) -> np.ndarray:
    """``values`` as a float32 query vector of the table's dimension."""
    query = np.asarray(values, dtype=np.float32)
    if schema.vector_dim and query.shape[0] != schema.vector_dim:
        raise BindError(
            f"query vector length {query.shape[0]} != table DIM {schema.vector_dim}"
        )
    return query


def _split_distance_range(
    predicate: Optional[Expression], schema: TableSchema
) -> Tuple[Optional[Expression], Optional[Tuple[str, np.ndarray, Expression]]]:
    """Pull ``distance(...) < r`` conjuncts out of the WHERE clause.

    Returns (remaining scalar predicate, (metric, query, radius
    expression) or None).  Implements the *distance range filter
    pushdown* extraction; the rule itself (attaching the radius to the
    ANN scan) runs in rules.py.
    """
    if predicate is None:
        return None, None
    found: List[Tuple[str, np.ndarray, Expression]] = []

    def walk(expr: Expression) -> Optional[Expression]:
        if isinstance(expr, BinaryOp) and expr.op == "and":
            left = walk(expr.left)
            right = walk(expr.right)
            if left is None:
                return right
            if right is None:
                return left
            return BinaryOp("and", left, right)
        if isinstance(expr, BinaryOp) and expr.op in ("<", "<="):
            if isinstance(expr.left, FunctionCall):
                bound = _bind_distance_call(expr.left, schema)
                if bound is not None and _numeric_literal(expr.right) is not None:
                    found.append((*bound, expr.right))
                    return None
        if isinstance(expr, BinaryOp) and expr.op in (">", ">="):
            if isinstance(expr.right, FunctionCall):
                bound = _bind_distance_call(expr.right, schema)
                if bound is not None and _numeric_literal(expr.left) is not None:
                    found.append((*bound, expr.left))
                    return None
        return expr

    remaining = walk(predicate)
    if not found:
        return remaining, None
    if len(found) > 1:
        raise PlannerError("at most one distance range constraint is supported")
    return remaining, found[0]


def _numeric_literal(
    expr: Expression, literals: Optional[Sequence[Any]] = None
) -> Optional[float]:
    """The value of a (possibly negated) numeric literal, else None; a
    template's slotted literal is read from ``literals`` when given.

    A number or string literal must *be* a number: which conjunct is the
    range constraint is a property of the statement's shape (its
    signature), never of a literal's type.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if literals is not None and expr.slot is not None:
            value = literals[expr.slot]
        if isinstance(value, (int, float)):
            return float(value)
        if expr.slot is not None:
            raise BindError(f"a distance range needs a number, got {value!r}")
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = _numeric_literal(expr.operand, literals)
        return None if inner is None else -inner
    return None


def bind_select(select: Select, schema: TableSchema) -> HybridLogicalPlan:
    """Bind a parsed SELECT against a table schema.

    Raises
    ------
    BindError
        On unknown columns or malformed distance usage.
    PlannerError
        On vector ORDER BY without LIMIT, descending distance order, or
        multiple ORDER BY keys alongside a distance key.
    """
    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    output_columns: List[str] = []
    output_aliases: List[Optional[str]] = []
    wants_distance = False
    distance_alias_in_select: Optional[str] = None
    for item in select.items:
        expr = item.expression
        if isinstance(expr, ColumnRef):
            if expr.name == "*":
                for name in schema.column_order:
                    output_columns.append(name)
                    output_aliases.append(None)
                continue
            output_columns.append(expr.name)
            output_aliases.append(item.alias)
            continue
        if isinstance(expr, FunctionCall) and distance_metric_for(expr.name):
            # SELECT L2Distance(...) AS d — distance in the projection.
            wants_distance = True
            distance_alias_in_select = item.alias or expr.name
            output_columns.append("__distance__")
            output_aliases.append(distance_alias_in_select)
            continue
        raise BindError(
            "projection supports columns, *, and distance functions only"
        )

    # ------------------------------------------------------------------
    # ORDER BY: detect the vector pattern
    # ------------------------------------------------------------------
    distance: Optional[DistanceExpr] = None
    if select.order_by:
        first = select.order_by[0]
        bound = None
        if isinstance(first.expression, FunctionCall):
            bound = _bind_distance_call(first.expression, schema)
        if bound is not None:
            if not first.ascending:
                raise PlannerError(
                    "vector search orders by ascending distance; DESC is not supported"
                )
            if len(select.order_by) > 1:
                raise PlannerError(
                    "a distance ORDER BY cannot be combined with other sort keys"
                )
            if select.limit is None:
                raise PlannerError("vector search requires a LIMIT (top-k)")
            distance = DistanceExpr(
                metric=bound[0], query_vector=bound[1], alias=first.alias
            )

    # ------------------------------------------------------------------
    # WHERE: split off distance range constraints
    # ------------------------------------------------------------------
    scalar_predicate, range_constraint = _split_distance_range(select.where, schema)
    distance_range: Optional[float] = None
    if range_constraint is not None:
        metric, query, radius = range_constraint
        distance_range = _numeric_literal(radius)
        if distance is None:
            # Pure range query: SELECT ... WHERE dist(...) < r (no top-k).
            distance = DistanceExpr(metric=metric, query_vector=query)
        else:
            if distance.metric != metric or not np.array_equal(
                distance.query_vector, query
            ):
                raise PlannerError(
                    "distance range constraint must match the ORDER BY distance"
                )

    # Distance alias referenced in the projection (`SELECT id, dist ...
    # ORDER BY L2Distance(...) AS dist`) resolves to the distance output.
    if distance is not None and distance.alias:
        for i, name in enumerate(output_columns):
            if name == distance.alias:
                output_columns[i] = "__distance__"
                if output_aliases[i] is None:
                    output_aliases[i] = distance.alias
                wants_distance = True
    if distance_alias_in_select is not None:
        wants_distance = True

    # Validate plain columns against the schema.
    for name in output_columns:
        if name == "__distance__":
            continue
        if name not in schema.columns:
            raise BindError(f"unknown column {name!r} in projection")

    needs_vector = schema.vector_column in output_columns if schema.vector_column else False
    return HybridLogicalPlan(
        table=schema.name,
        output_columns=output_columns,
        output_aliases=output_aliases,
        scalar_predicate=scalar_predicate,
        distance=distance,
        k=select.limit if distance is not None else select.limit,
        offset=select.offset,
        distance_range=distance_range,
        needs_vector_column=needs_vector,
        wants_distance_output=wants_distance,
    )


@dataclass
class PreparedSelect:
    """One SELECT shape, parsed, bound and rule-rewritten once.

    ``select`` is the template AST and ``logical`` the plan bound from it
    (both hold the literals of the statement they were made from);
    ``vector_slot`` is the literal behind ``logical.distance``, ``radius``
    the template expression behind ``logical.distance_range``.  Depends
    on the table's schema only, never on its data.
    """

    select: Select
    logical: HybridLogicalPlan
    vector_slot: Optional[int] = None
    radius: Optional[Expression] = None

    def bind(self, scan: Scan, schema: TableSchema) -> HybridLogicalPlan:
        """The plan that binding and rewriting ``scan``'s own AST would
        give: every check that depends on a literal's value is made
        again, and nothing mutable is shared with the template."""
        select, template, literals = self.select, self.logical, scan.literals
        k = None if select.limit_slot is None else scan.integer(select.limit_slot)
        offset = 0 if select.offset_slot is None else scan.integer(select.offset_slot)
        distance = template.distance
        if distance is not None:
            distance = replace(
                distance, query_vector=_query_vector(literals[self.vector_slot], schema)
            )
            if k is not None:
                k += offset  # topk_pushdown: the ANN scan yields offset + k rows
        return replace(
            template,
            output_columns=list(template.output_columns),
            output_aliases=list(template.output_aliases),
            scalar_predicate=fill_literals(template.scalar_predicate, literals),
            distance=distance,
            k=k,
            offset=offset,
            distance_range=self.radius and _numeric_literal(self.radius, literals),
        )


def prepare_select(
    select: Select, schema: TableSchema, logical: HybridLogicalPlan, scan: Scan
) -> Optional[PreparedSelect]:
    """The template of ``scan``'s shape from its parsed ``select`` and
    bound, rewritten ``logical`` — or None when the slot map cannot
    describe it.  The statement's vector literals must be exactly the one
    the distance operator is bound from: a shape that compares two (ORDER
    BY vector vs range vector), or keeps one in the predicate or the
    projection, is bound in full every time."""
    vectors = [slot for slot, value in enumerate(scan.literals) if type(value) is tuple]
    if len(vectors) != (logical.distance is not None):
        return None
    constraint = _split_distance_range(select.where, schema)[1]
    return PreparedSelect(
        select, logical, vectors[0] if vectors else None, constraint and constraint[2]
    )
