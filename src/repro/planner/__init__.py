"""Plan generation and optimization for hybrid queries.

Pipeline (paper §II-C "Plan generation and optimization"):

1. :mod:`repro.planner.logical` — the parser's Select AST is bound into a
   logical operator tree with the new **ANN scan** operator.
2. :mod:`repro.planner.rules` — rule-based rewrites: distance top-k
   pushdown, distance range-filter pushdown, vector column pruning.
3. :mod:`repro.planner.cost` — the accuracy-aware cost model
   (Equations 1–3, Table II notation).
4. :mod:`repro.planner.optimizer` — cost-based choice among Plan A
   (brute force), Plan B (pre-filter), Plan C (post-filter), plus the
   short-circuit path for simple hybrid queries.
5. :mod:`repro.planner.plancache` — parameterized plan cache keyed on
   query structure with the literal parameters abstracted out.
"""

from repro.planner.cost import CostInputs, CostModelParams, plan_costs
from repro.planner.logical import HybridLogicalPlan, bind_select
from repro.planner.optimizer import ExecutionStrategy, Optimizer, PhysicalPlan
from repro.planner.plancache import PlanCache

__all__ = [
    "CostInputs",
    "CostModelParams",
    "ExecutionStrategy",
    "HybridLogicalPlan",
    "Optimizer",
    "PhysicalPlan",
    "PlanCache",
    "bind_select",
    "plan_costs",
]
