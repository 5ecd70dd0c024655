"""Cost-based plan selection (paper §IV-A, Fig 8).

The optimizer turns a bound :class:`HybridLogicalPlan` into a
:class:`PhysicalPlan` by choosing among:

* **Plan A / BRUTE_FORCE** — scalar filter, then exact distances on the
  qualifying rows.  Wins when few rows qualify.
* **Plan B / PRE_FILTER** — build a qualifying-row bitset, then an ANN
  bitmap scan.  Considered only when the structured scan returns at
  least :data:`PREFILTER_ROW_THRESHOLD` rows (the paper's "ten thousands
  of rows" rule).
* **Plan C / POST_FILTER** — iterative ANN scan first, filter after,
  widening until k rows survive.  Wins when most rows qualify.

Non-hybrid shapes degenerate naturally: no predicate → ANN_ONLY, no
distance → SCALAR_ONLY, range without top-k → RANGE.

Setting ``enable_cbo = 0`` forces the static default (PRE_FILTER, as in
the paper's Fig 15 ablation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.catalog.statistics import TableStatistics
from repro.planner.cost import CostInputs, CostModelParams, plan_costs
from repro.planner.logical import HybridLogicalPlan
from repro.vindex.registry import IndexSpec

DEFAULT_EF_SEARCH = 64
DEFAULT_NPROBE = 8
# Plan B needs this many qualifying rows (the paper's "~10k rows" rule,
# scaled to this reproduction's table sizes).
PREFILTER_ROW_THRESHOLD = 1000
# Graph beam searches expand roughly this many candidates per result slot.
GRAPH_VISIT_EXPANSION = 4.0


class ExecutionStrategy(enum.Enum):
    """How the physical plan interleaves filtering and vector search."""

    BRUTE_FORCE = "brute_force"    # Plan A
    PRE_FILTER = "pre_filter"      # Plan B
    POST_FILTER = "post_filter"    # Plan C
    ANN_ONLY = "ann_only"          # no scalar predicate
    RANGE = "range"                # distance range scan
    SCALAR_ONLY = "scalar_only"    # no vector operator


@dataclass
class PhysicalPlan:
    """A chosen execution strategy plus its runtime parameters."""

    logical: HybridLogicalPlan
    strategy: ExecutionStrategy
    search_params: Dict[str, Any] = field(default_factory=dict)
    sigma: float = 2.0
    estimated_costs: Dict[str, float] = field(default_factory=dict)
    estimated_selectivity: float = 1.0
    cbo_used: bool = True
    short_circuited: bool = False
    # False when the table's index cannot serve this query (e.g. its
    # build metric differs from the query's distance metric); execution
    # then uses exact kernels only.
    use_index: bool = True

    def rebound(self, logical: HybridLogicalPlan) -> "PhysicalPlan":
        """Same strategy/params bound to a fresh logical plan (plan cache)."""
        return PhysicalPlan(
            logical=logical,
            strategy=self.strategy,
            search_params=dict(self.search_params),
            sigma=self.sigma,
            estimated_costs=dict(self.estimated_costs),
            estimated_selectivity=self.estimated_selectivity,
            cbo_used=self.cbo_used,
            short_circuited=self.short_circuited,
            use_index=self.use_index,
        )


def estimate_visit_fraction(
    index_spec: Optional[IndexSpec],
    search_params: Dict[str, Any],
    n: int,
    k: int,
) -> float:
    """The β / γ of Table II: fraction of tuples an ANN scan touches."""
    if n <= 0:
        return 0.0
    if index_spec is None:
        return 1.0  # no index: every scan is a full scan
    index_type = index_spec.index_type
    if index_type in ("HNSW", "HNSWSQ", "DISKANN"):
        ef = int(search_params.get("ef_search", DEFAULT_EF_SEARCH))
        ef = max(ef, k)
        return min(1.0, ef * GRAPH_VISIT_EXPANSION / n)
    if index_type in ("IVFFLAT", "IVFPQ", "IVFPQFS"):
        nlist = int(index_spec.params.get("nlist", 64))
        nprobe = int(search_params.get("nprobe", DEFAULT_NPROBE))
        return min(1.0, max(1, nprobe) / max(1, nlist))
    if index_type == "FLAT":
        return 1.0
    return 1.0


class Optimizer:
    """Chooses the physical plan for a bound logical plan.

    The switches are the session's: ``enable_cbo`` off plans the static
    pre-filter default (Fig 15), ``enable_short_circuit`` off costs even
    the simple pure-vector shape (Fig 17), and ``forced_strategy`` pins
    every hybrid query to one plan.
    """

    def __init__(
        self,
        params: CostModelParams,
        *,
        enable_cbo: bool = True,
        enable_short_circuit: bool = True,
        forced_strategy: Optional[ExecutionStrategy] = None,
    ) -> None:
        self.params = params
        self.enable_cbo = enable_cbo
        self.enable_short_circuit = enable_short_circuit
        self.forced_strategy = forced_strategy

    def default_search_params(self, index_spec: Optional[IndexSpec]) -> Dict[str, Any]:
        """Per-index-type search-parameter defaults.

        Public because the plan-cache rebind fast path recomputes params
        fresh (defaults + current SET overrides) instead of trusting the
        cached template's possibly-stale values.
        """
        if index_spec is None:
            return {}
        if index_spec.index_type in ("HNSW", "HNSWSQ"):
            return {"ef_search": DEFAULT_EF_SEARCH}
        if index_spec.index_type == "DISKANN":
            return {"beam": DEFAULT_EF_SEARCH}
        if index_spec.index_type in ("IVFFLAT", "IVFPQ", "IVFPQFS"):
            return {"nprobe": DEFAULT_NPROBE}
        return {}

    def choose(
        self,
        logical: HybridLogicalPlan,
        statistics: TableStatistics,
        index_spec: Optional[IndexSpec],
        search_params: Optional[Dict[str, Any]] = None,
    ) -> PhysicalPlan:
        """Select the physical plan for ``logical``.

        ``search_params`` lets callers (or SET statements) override
        ef_search/nprobe; otherwise defaults apply.
        """
        params = dict(self.default_search_params(index_spec))
        params.update(search_params or {})

        # Degenerate shapes first.
        if not logical.is_vector_query:
            return PhysicalPlan(logical, ExecutionStrategy.SCALAR_ONLY,
                                search_params=params, cbo_used=False)
        if logical.k is None and logical.distance_range is not None:
            return PhysicalPlan(logical, ExecutionStrategy.RANGE,
                                search_params=params, cbo_used=False)
        if logical.scalar_predicate is None:
            # Simple hybrid pattern: short-circuit skips costing entirely.
            return PhysicalPlan(
                logical, ExecutionStrategy.ANN_ONLY, search_params=params,
                cbo_used=False,
                short_circuited=self.enable_short_circuit,
            )

        if self.forced_strategy is not None:
            return PhysicalPlan(
                logical, self.forced_strategy, search_params=params,
                sigma=self.params.sigma, cbo_used=False,
            )
        if not self.enable_cbo:
            # Static default without CBO: pre-filter (Fig 15 baseline).
            return PhysicalPlan(
                logical, ExecutionStrategy.PRE_FILTER, search_params=params,
                sigma=self.params.sigma, cbo_used=False,
            )

        n = max(statistics.row_count, 1)
        s = statistics.estimate_selectivity(logical.scalar_predicate)
        k = logical.k or 10
        beta = estimate_visit_fraction(index_spec, params, n, k)
        # Bitmap scans on graph indexes widen their beam until k allowed
        # rows are collected, so the visit fraction grows like k/s when
        # the filter is sparse.
        gamma = beta
        if index_spec is not None and index_spec.index_type in (
            "HNSW", "HNSWSQ", "DISKANN"
        ):
            ef = int(params.get("ef_search", DEFAULT_EF_SEARCH))
            widened = max(ef, k / max(s, 1e-4))
            gamma = min(1.0, widened * GRAPH_VISIT_EXPANSION / n)
        inputs = CostInputs(n=n, s=s, k=k, beta=beta, gamma=gamma)
        costs = plan_costs(inputs, self.params)

        # Paper's threshold rule: the bitmap scan is only worth building
        # when the structured scan yields enough rows.
        candidates = dict(costs)
        if s * n < PREFILTER_ROW_THRESHOLD:
            candidates.pop("B")
        best = min(candidates, key=lambda key: candidates[key])
        strategy = {
            "A": ExecutionStrategy.BRUTE_FORCE,
            "B": ExecutionStrategy.PRE_FILTER,
            "C": ExecutionStrategy.POST_FILTER,
        }[best]
        return PhysicalPlan(
            logical,
            strategy,
            search_params=params,
            sigma=self.params.sigma,
            estimated_costs=costs,
            estimated_selectivity=s,
            cbo_used=True,
        )
