"""AST node definitions for the SQL dialect.

Nodes are plain dataclasses; the planner walks them directly.  Expression
nodes share the :class:`Expression` base so predicates compose.

Every parsed statement is also a *template*: a node built from a literal
remembers the literal's ``slot`` in its scan's literal vector, so another
statement of the same shape can be bound without being parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple


class Statement:
    """Marker base class for top-level statements."""


class Expression:
    """Marker base class for expression-tree nodes."""


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class Literal(Expression):
    """A constant: number, string, boolean, or NULL."""

    value: Any
    slot: Optional[int] = field(default=None, compare=False)


@dataclass
class VectorLiteral(Expression):
    """A bracketed vector constant, e.g. ``[0.1, 0.2, 0.3]``."""

    values: Tuple[float, ...]
    slot: Optional[int] = field(default=None, compare=False)


@dataclass
class ColumnRef(Expression):
    """A reference to a column (or an output alias) by name."""

    name: str


@dataclass
class BinaryOp(Expression):
    """Binary operation: comparisons, arithmetic, AND/OR, LIKE, REGEXP."""

    op: str
    left: Expression
    right: Expression


@dataclass
class UnaryOp(Expression):
    """Unary operation: NOT or numeric negation."""

    op: str
    operand: Expression


@dataclass
class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive both ends)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False


@dataclass
class FunctionCall(Expression):
    """A function application, e.g. ``L2Distance(embedding, [..])``."""

    name: str
    args: Tuple[Expression, ...]

    @property
    def lowered_name(self) -> str:
        """Case-normalized function name."""
        return self.name.lower()


DISTANCE_FUNCTIONS = {
    "l2distance": "l2",
    "innerproductdistance": "ip",
    "ipdistance": "ip",
    "cosinedistance": "cosine",
}


def distance_metric_for(function_name: str) -> Optional[str]:
    """Metric string for a distance function name, or None if not one."""
    return DISTANCE_FUNCTIONS.get(function_name.lower())


def fill_literals(node: Any, literals: Sequence[Any]) -> Any:
    """A fresh copy of the scalar template expression ``node`` with every
    slotted :class:`Literal` read from ``literals``; leaves are shared."""
    if isinstance(node, Literal):
        return node if node.slot is None else Literal(literals[node.slot], node.slot)
    if isinstance(node, tuple):
        return tuple(fill_literals(item, literals) for item in node)
    if not isinstance(node, (BinaryOp, UnaryOp, Between, InList, FunctionCall)):
        return node
    return type(node)(
        *(fill_literals(getattr(node, name), literals) for name in node.__dataclass_fields__)
    )


# ----------------------------------------------------------------------
# DDL
# ----------------------------------------------------------------------
@dataclass
class ColumnDef:
    """One column in CREATE TABLE: name plus a dialect type string."""

    name: str
    type_name: str
    type_args: Tuple[str, ...] = ()


@dataclass
class IndexDef:
    """``INDEX name column TYPE HNSW('DIM=960', ...)``."""

    name: str
    column: str
    index_type: str
    options: Tuple[str, ...] = ()


@dataclass
class CreateTable(Statement):
    """CREATE TABLE with columns, vector index, ordering, partitioning."""

    name: str
    columns: List[ColumnDef]
    indexes: List[IndexDef] = field(default_factory=list)
    order_by: List[str] = field(default_factory=list)
    partition_by: List[Expression] = field(default_factory=list)
    cluster_by: Optional[str] = None
    cluster_buckets: int = 0
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    """DROP TABLE [IF EXISTS] name."""

    name: str
    if_exists: bool = False


# ----------------------------------------------------------------------
# DML
# ----------------------------------------------------------------------
@dataclass
class Insert(Statement):
    """INSERT INTO t [(cols)] VALUES (...), (...) or CSV INFILE 'path'."""

    table: str
    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    infile: Optional[str] = None


@dataclass
class Update(Statement):
    """UPDATE t SET col = expr, ... WHERE predicate."""

    table: str
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    """DELETE FROM t WHERE predicate."""

    table: str
    where: Optional[Expression] = None


@dataclass
class SetStatement(Statement):
    """SET name = value (session settings, e.g. enable_cbo = 0)."""

    name: str
    value: Any


@dataclass
class Checkpoint(Statement):
    """CHECKPOINT: force a durability checkpoint and WAL truncation."""


@dataclass
class ShowSlowQueries(Statement):
    """SHOW SLOW QUERIES [LIMIT n]: render the flight recorder."""

    limit: Optional[int] = None


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
@dataclass
class OrderByItem:
    """One ORDER BY entry: an expression, optional alias, direction."""

    expression: Expression
    alias: Optional[str] = None
    ascending: bool = True


@dataclass
class SelectItem:
    """One projected output: expression plus optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass
class Select(Statement):
    """SELECT items FROM table [AS OF n] [WHERE ...] [ORDER BY ...] [LIMIT n].

    ``as_of`` pins the query to a historical manifest id (time travel);
    None reads the current manifest.  The ``*_slot`` fields say which
    literal each of the three integers was read from.
    """

    items: List[SelectItem]
    table: str
    where: Optional[Expression] = None
    order_by: List[OrderByItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    as_of: Optional[int] = None
    limit_slot: Optional[int] = field(default=None, compare=False)
    offset_slot: Optional[int] = field(default=None, compare=False)
    as_of_slot: Optional[int] = field(default=None, compare=False)


@dataclass
class Explain(Statement):
    """EXPLAIN [ANALYZE] select.

    Plain EXPLAIN reports the chosen physical plan without executing;
    EXPLAIN ANALYZE runs the query and attaches the recorded span tree.
    """

    statement: Select
    analyze: bool = False
