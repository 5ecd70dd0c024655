"""Batch expression evaluation over columnar data.

The executor evaluates predicate and projection expressions against a
column batch: a dict mapping column name → numpy array (numeric), list of
strings, or a 2-D float array for the vector column.  Results are numpy
arrays of ``row_count`` elements; scalar sub-expressions broadcast.

Distance functions (``L2Distance`` etc.) evaluate directly when applied
to a vector column and a vector literal, which is how Plan A's brute
force DISTANCE computation and range predicates on distance work.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Dict, Union

import numpy as np

from repro.errors import BindError
from repro.sqlparser.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
    VectorLiteral,
    distance_metric_for,
)
from repro.vindex.api import pairwise_distance

ColumnBatch = Dict[str, Any]
Value = Union[np.ndarray, float, int, str, bool, None]


def _like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an anchored regex."""
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append("$")
    return "".join(out)


def _as_string_list(value: Any, row_count: int) -> list:
    if isinstance(value, list):
        return value
    if isinstance(value, np.ndarray):
        return [str(v) for v in value.tolist()]
    return [str(value)] * row_count


def _broadcast(value: Value, row_count: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    return np.full(row_count, value)


def evaluate_expression(expr: Expression, columns: ColumnBatch, row_count: int) -> Value:
    """Evaluate ``expr`` against a column batch.

    Returns a numpy array of length ``row_count`` for row-varying
    expressions or a python scalar for constants.

    Raises
    ------
    BindError
        On references to columns absent from the batch or unknown
        functions.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        if expr.name not in columns:
            raise BindError(f"unknown column {expr.name!r}")
        return columns[expr.name]
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, columns, row_count)
    if isinstance(expr, VectorLiteral):
        return np.asarray(expr.values, dtype=np.float32)
    if isinstance(expr, UnaryOp):
        operand = evaluate_expression(expr.operand, columns, row_count)
        if expr.op == "not":
            return ~_to_bool(operand, row_count)
        if expr.op == "-":
            if isinstance(operand, np.ndarray):
                return -operand
            return -operand  # numeric scalar
        raise BindError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Between):
        operand = evaluate_expression(expr.operand, columns, row_count)
        low = evaluate_expression(expr.low, columns, row_count)
        high = evaluate_expression(expr.high, columns, row_count)
        arr = _broadcast(operand, row_count)
        result = (arr >= low) & (arr <= high)
        return ~result if expr.negated else result
    if isinstance(expr, InList):
        operand = evaluate_expression(expr.operand, columns, row_count)
        values = [evaluate_expression(item, columns, row_count) for item in expr.items]
        if isinstance(operand, list):
            value_set = set(values)
            result = np.array([v in value_set for v in operand], dtype=bool)
        else:
            arr = _broadcast(operand, row_count)
            result = np.zeros(row_count, dtype=bool)
            for value in values:
                result |= arr == value
        return ~result if expr.negated else result
    if isinstance(expr, FunctionCall):
        return _evaluate_function(expr, columns, row_count)
    raise BindError(f"cannot evaluate expression node {type(expr).__name__}")


def _to_bool(value: Value, row_count: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(bool)
    return np.full(row_count, bool(value))


# The six comparisons, checked first: a filter is mostly one of them.
# ``operator``'s functions are the ``arr < value`` calls themselves (an
# ``=`` against a string literal on a numeric column is all False, where
# the bare ufunc would raise).
_COMPARISONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _evaluate_binary(expr: BinaryOp, columns: ColumnBatch, row_count: int) -> Value:
    op = expr.op
    compare = _COMPARISONS.get(op)
    if compare is not None:
        left = evaluate_expression(expr.left, columns, row_count)
        right = evaluate_expression(expr.right, columns, row_count)
        if isinstance(left, list) or isinstance(right, list):
            # String comparisons against list columns.
            pairs = zip(_as_string_list(left, row_count), _as_string_list(right, row_count))
            return np.array([compare(a, b) for a, b in pairs], dtype=bool)
        return compare(_broadcast(left, row_count), right)
    if op in ("and", "or"):
        left = _to_bool(evaluate_expression(expr.left, columns, row_count), row_count)
        right = _to_bool(evaluate_expression(expr.right, columns, row_count), row_count)
        return (left & right) if op == "and" else (left | right)
    if op in ("like", "regexp"):
        subject = evaluate_expression(expr.left, columns, row_count)
        pattern_value = evaluate_expression(expr.right, columns, row_count)
        if not isinstance(pattern_value, str):
            raise BindError(f"{op.upper()} pattern must be a string literal")
        pattern = _like_to_regex(pattern_value) if op == "like" else pattern_value
        compiled = re.compile(pattern)
        strings = _as_string_list(subject, row_count)
        return np.array([compiled.search(s) is not None for s in strings], dtype=bool)
    if op == "is_null":
        subject = evaluate_expression(expr.left, columns, row_count)
        if isinstance(subject, list):
            return np.array([v is None for v in subject], dtype=bool)
        if isinstance(subject, np.ndarray):
            if subject.dtype.kind == "f":
                return np.isnan(subject)
            return np.zeros(row_count, dtype=bool)
        return np.full(row_count, subject is None)

    left = evaluate_expression(expr.left, columns, row_count)
    right = evaluate_expression(expr.right, columns, row_count)
    if isinstance(left, list) or isinstance(right, list):
        raise BindError(f"operator {op!r} not supported on strings")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    raise BindError(f"unknown binary operator {op!r}")


def _evaluate_function(expr: FunctionCall, columns: ColumnBatch, row_count: int) -> Value:
    name = expr.lowered_name
    metric = distance_metric_for(name)
    if metric is not None:
        if len(expr.args) != 2:
            raise BindError(f"{expr.name} takes exactly two arguments")
        column_value = evaluate_expression(expr.args[0], columns, row_count)
        query_value = evaluate_expression(expr.args[1], columns, row_count)
        vectors = np.asarray(column_value, dtype=np.float32)
        query = np.asarray(query_value, dtype=np.float32).reshape(-1)
        if vectors.ndim != 2:
            raise BindError(
                f"{expr.name} first argument must be a vector column"
            )
        return pairwise_distance(query, vectors, metric).astype(np.float64)
    if name == "toyyyymmdd":
        value = evaluate_expression(expr.args[0], columns, row_count)
        # Dates are modelled as integer yyyymmdd or epoch-day ints; the
        # function is the identity on already-coded values.
        return np.asarray(value)
    if name == "abs":
        return np.abs(np.asarray(evaluate_expression(expr.args[0], columns, row_count)))
    if name == "length":
        value = evaluate_expression(expr.args[0], columns, row_count)
        return np.array([len(s) for s in _as_string_list(value, row_count)])
    if name == "lower":
        value = evaluate_expression(expr.args[0], columns, row_count)
        return [s.lower() for s in _as_string_list(value, row_count)]
    if name == "upper":
        value = evaluate_expression(expr.args[0], columns, row_count)
        return [s.upper() for s in _as_string_list(value, row_count)]
    raise BindError(f"unknown function {expr.name!r}")


def evaluate_predicate(expr: Expression, columns: ColumnBatch, row_count: int) -> np.ndarray:
    """Evaluate a WHERE predicate to a boolean mask of ``row_count`` rows."""
    return _to_bool(evaluate_expression(expr, columns, row_count), row_count)
