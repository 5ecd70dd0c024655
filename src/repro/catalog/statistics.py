"""Histogram statistics for selectivity estimation.

The cost-based optimizer needs the proportion ``s`` of tuples satisfying
the structured predicate (paper Table II, "estimated with histograms",
citing Poosala et al.).  We keep one equi-width histogram per numeric
column and a value-frequency sketch per string column, refreshed on
ingest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.sqlparser.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
)

DEFAULT_BINS = 32
DEFAULT_UNKNOWN_SELECTIVITY = 0.33
REGEX_SELECTIVITY_GUESS = 0.1


@dataclass
class EquiWidthHistogram:
    """Equi-width histogram over one numeric column."""

    edges: np.ndarray          # len bins + 1
    counts: np.ndarray         # len bins
    total: int
    n_distinct: int
    value_min: float = 0.0     # true data range (edges may be padded)
    value_max: float = 0.0

    @classmethod
    def build(cls, values: np.ndarray, bins: int = DEFAULT_BINS) -> "EquiWidthHistogram":
        """Fit a histogram to ``values``."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            edges = np.array([0.0, 1.0])
            return cls(edges=edges, counts=np.zeros(1, dtype=np.int64),
                       total=0, n_distinct=0)
        low = float(values.min())
        high = float(values.max())
        padded_high = high if high > low else low + 1.0
        counts, edges = np.histogram(values, bins=bins, range=(low, padded_high))
        n_distinct = int(np.unique(values).size)
        return cls(edges=edges, counts=counts.astype(np.int64),
                   total=int(values.size), n_distinct=n_distinct,
                   value_min=low, value_max=high)

    def selectivity_range(self, low: Optional[float], high: Optional[float]) -> float:
        """Fraction of rows with value in ``[low, high]`` (None = open)."""
        if self.total == 0:
            return 0.0
        if low is not None and low > self.value_max:
            return 0.0
        if high is not None and high < self.value_min:
            return 0.0
        # Python floats, not numpy scalars: the bin loop below does the
        # same float64 operations in the same order, so the estimate is
        # bit-identical to indexing the arrays, at a fraction of the cost.
        edges = self.edges.tolist()
        lo = edges[0] if low is None else max(low, edges[0])
        hi = edges[-1] if high is None else min(high, edges[-1])
        if hi < lo:
            return 0.0
        if hi == lo:
            # Zero-width interval: a point query, handled by the
            # distinct-count equality model.
            return self.selectivity_eq(lo)
        # A bin with no overlap would add +0.0 to a non-negative sum,
        # which changes no bit, so it is skipped; the edges ascend, so
        # once a bin starts at or past ``hi`` no later bin overlaps.
        covered = 0.0
        for count, left, right in zip(self.counts.tolist(), edges, edges[1:]):
            if left >= hi:
                break
            width = right - left
            if width <= 0:
                continue
            overlap = min(hi, right) - max(lo, left)
            if overlap > 0:
                covered += count * (overlap / width)
        return min(1.0, covered / self.total)

    def selectivity_eq(self, value: float) -> float:
        """Fraction of rows equal to ``value`` (uniform-within-bin model)."""
        if self.total == 0 or self.n_distinct == 0:
            return 0.0
        if value < self.value_min or value > self.value_max:
            return 0.0
        return min(1.0, 1.0 / self.n_distinct)


@dataclass
class StringStats:
    """Frequency sketch for a string column."""

    total: int
    frequencies: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, values: List[str], top: int = 256) -> "StringStats":
        """Keep the ``top`` most common values exactly."""
        counter = Counter(values)
        return cls(total=len(values), frequencies=dict(counter.most_common(top)))

    @property
    def n_distinct(self) -> int:
        """Distinct values observed in the retained sketch."""
        return max(1, len(self.frequencies))

    def selectivity_eq(self, value: str) -> float:
        """Fraction of rows equal to ``value``."""
        if self.total == 0:
            return 0.0
        if value in self.frequencies:
            return self.frequencies[value] / self.total
        # Unseen value: assume it is rarer than the retained tail.
        return min(1.0 / self.total, 1.0 / self.n_distinct)


class TableStatistics:
    """Per-table statistics driving CBO selectivity estimates."""

    def __init__(self) -> None:
        self.row_count = 0
        self.histograms: Dict[str, EquiWidthHistogram] = {}
        self.string_stats: Dict[str, StringStats] = {}

    def refresh(self, columns: Dict[str, Any], row_count: int) -> None:
        """Rebuild statistics from full column data (small tables) or a
        sample (the ingest path passes a sample for large tables)."""
        self.row_count = row_count
        self.histograms.clear()
        self.string_stats.clear()
        for name, values in columns.items():
            if isinstance(values, np.ndarray) and values.ndim == 1:
                self.histograms[name] = EquiWidthHistogram.build(values)
            elif isinstance(values, list):
                self.string_stats[name] = StringStats.build(values)

    # ------------------------------------------------------------------
    # Selectivity estimation over predicate trees
    # ------------------------------------------------------------------
    def estimate_selectivity(self, predicate: Optional[Expression]) -> float:
        """Estimated fraction of rows satisfying ``predicate`` (1.0 = all)."""
        if predicate is None:
            return 1.0
        return max(0.0, min(1.0, self._walk(predicate)))

    def _walk(self, expr: Expression) -> float:
        if isinstance(expr, BinaryOp):
            if expr.op == "and":
                # Independence assumption, the textbook default.
                return self._walk(expr.left) * self._walk(expr.right)
            if expr.op == "or":
                left, right = self._walk(expr.left), self._walk(expr.right)
                return left + right - left * right
            if expr.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison(expr)
            if expr.op in ("like", "regexp"):
                return REGEX_SELECTIVITY_GUESS
            if expr.op == "is_null":
                return 0.01
            return DEFAULT_UNKNOWN_SELECTIVITY
        if isinstance(expr, UnaryOp) and expr.op == "not":
            return 1.0 - self._walk(expr.operand)
        if isinstance(expr, Between):
            sel = self._range_selectivity(expr.operand, expr.low, expr.high)
            return 1.0 - sel if expr.negated else sel
        if isinstance(expr, InList):
            sel = 0.0
            for item in expr.items:
                sel += self._walk(BinaryOp("=", expr.operand, item))
            sel = min(1.0, sel)
            return 1.0 - sel if expr.negated else sel
        if isinstance(expr, Literal):
            return 1.0 if expr.value else 0.0
        return DEFAULT_UNKNOWN_SELECTIVITY

    @staticmethod
    def _literal_value(expr: Expression) -> Optional[Any]:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(expr.operand, Literal):
            return -expr.operand.value
        return None

    def _column_name(self, expr: Expression) -> Optional[str]:
        if isinstance(expr, ColumnRef):
            return expr.name
        if isinstance(expr, FunctionCall) and expr.args:
            # toYYYYMMDD(col) etc. preserve ordering; use the inner column.
            return self._column_name(expr.args[0])
        return None

    def _comparison(self, expr: BinaryOp) -> float:
        column = self._column_name(expr.left)
        value = self._literal_value(expr.right)
        if column is None or value is None:
            # Symmetric case: literal on the left.
            column = self._column_name(expr.right)
            value = self._literal_value(expr.left)
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            op = flip.get(expr.op, expr.op)
        else:
            op = expr.op
        if column is None or value is None:
            return DEFAULT_UNKNOWN_SELECTIVITY
        if column in self.string_stats and isinstance(value, str):
            eq = self.string_stats[column].selectivity_eq(value)
            return eq if op == "=" else (1.0 - eq if op == "!=" else
                                         DEFAULT_UNKNOWN_SELECTIVITY)
        hist = self.histograms.get(column)
        if hist is None or not isinstance(value, (int, float)):
            return DEFAULT_UNKNOWN_SELECTIVITY
        if op == "=":
            return hist.selectivity_eq(float(value))
        if op == "!=":
            return 1.0 - hist.selectivity_eq(float(value))
        if op == "<":
            return hist.selectivity_range(None, float(value))
        if op == "<=":
            return hist.selectivity_range(None, float(value))
        if op == ">":
            return hist.selectivity_range(float(value), None)
        if op == ">=":
            return hist.selectivity_range(float(value), None)
        return DEFAULT_UNKNOWN_SELECTIVITY

    def _range_selectivity(
        self, operand: Expression, low: Expression, high: Expression
    ) -> float:
        column = self._column_name(operand)
        low_value = self._literal_value(low)
        high_value = self._literal_value(high)
        hist = self.histograms.get(column) if column else None
        if hist is None or low_value is None or high_value is None:
            return DEFAULT_UNKNOWN_SELECTIVITY
        return hist.selectivity_range(float(low_value), float(high_value))
