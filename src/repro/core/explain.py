"""What ``EXPLAIN`` and ``EXPLAIN ANALYZE`` return."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.executor.pipeline import QueryResult
from repro.observe.trace import Span
from repro.planner.optimizer import PhysicalPlan


@dataclass
class ExplainResult:
    """Output of EXPLAIN / EXPLAIN ANALYZE.

    Holds the chosen physical plan, the recorded span tree, and (for
    ANALYZE) the executed query result.  :meth:`render` produces the
    text form the shell prints.
    """

    sql: str
    analyze: bool
    plan: PhysicalPlan
    trace: Optional[Span] = None
    result: Optional[QueryResult] = None

    def render(self) -> str:
        """Plan summary plus the span tree with per-operator timings."""
        mode = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        lines = [f"{mode} {self.sql.strip()}"]
        lines.append(
            f"plan: strategy={self.plan.strategy.value} "
            f"use_index={self.plan.use_index} sigma={self.plan.sigma:.2f} "
            f"search_params={self.plan.search_params}"
        )
        if self.trace is not None:
            lines.append(self.trace.render())
        if self.result is not None:
            lines.append(
                f"({len(self.result)} rows, "
                f"{self.result.simulated_seconds * 1e3:.3f} sim-ms)"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe form: plan summary plus the nested span tree."""
        return {
            "sql": self.sql.strip(),
            "analyze": self.analyze,
            "strategy": self.plan.strategy.value,
            "use_index": self.plan.use_index,
            "search_params": dict(self.plan.search_params),
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "rows": len(self.result) if self.result is not None else None,
        }
