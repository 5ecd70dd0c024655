"""The accuracy-aware cost model for hybrid query optimization.

Implements the paper's Equations (1)–(3) verbatim, with notation from
Table II:

========= ============================================================
``n``      total tuples in the table
``s``      proportion of tuples qualifying the structured predicate
``β``      proportion of tuples visited by the ANN scan
           (derived from ef_search / nprobe)
``γ``      proportion visited by the ANN *bitmap* scan
``c_p``    per-record bitmap test cost
``c_d``    cost to fetch a vector and compute an exact pairwise distance
``c_c``    cost to fetch a code and run ADC
``σ``      amplification factor of the ANN scan operators (refine)
``T0``     structured index scan cost (producing the qualifying rowids)
========= ============================================================

* Plan A (brute force):  ``cost = T0 + s·n·c_d``                      (1)
* Plan B (pre-filter):   ``cost = T0 + γ·n·(1/s)·(c_p + s·c_c) + σ·k·c_d``  (2)
* Plan C (post-filter):  ``cost = β·n·(1/s)·c_c + σ·k·c_d``            (3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.simulate.costmodel import DeviceCostModel
from repro.vindex.ivfpq import PRICED_SUBQUANTIZERS

# Selectivity floor to keep the 1/s amplification finite when the
# estimator reports (near-)zero qualifying rows.
MIN_SELECTIVITY = 1e-4


@dataclass(frozen=True)
class CostModelParams:
    """The per-record constants (c_p, c_d, c_c, T0-per-row) of Table II.

    Derived from the device cost model so they stay consistent with what
    the executor actually charges.
    """

    c_p: float       # bitmap test per record
    c_d: float       # exact distance (fetch vector + compute)
    c_c: float       # ADC over one code
    t0_per_row: float  # structured index scan per examined row
    sigma: float = 2.0  # refine amplification σ (> 1)

    @classmethod
    def from_device_model(
        cls, cost: DeviceCostModel, dim: int, sigma: float = 2.0
    ) -> "CostModelParams":
        """Instantiate the constants for a table of dimension ``dim``."""
        return cls(
            c_p=cost.bitmap_test_s,
            c_d=dim * cost.distance_flop_s + cost.ram_latency_s,
            # "fetch a code and run ADC": one memory access per code plus
            # the sub-quantizer table lookups.
            c_c=PRICED_SUBQUANTIZERS * cost.adc_lookup_s + cost.ram_latency_s,
            t0_per_row=cost.row_decode_s,
            sigma=sigma,
        )


@dataclass(frozen=True)
class CostInputs:
    """Per-query quantities the optimizer feeds the equations."""

    n: int            # total tuples
    s: float          # predicate selectivity estimate
    k: int            # requested top-k
    beta: float       # ANN scan visit fraction (ef_search / n or nprobe/nlist)
    gamma: float      # ANN bitmap scan visit fraction

    def clamped_s(self) -> float:
        """Selectivity bounded away from zero for 1/s amplification."""
        return max(self.s, MIN_SELECTIVITY)


def cost_plan_a(inputs: CostInputs, params: CostModelParams) -> float:
    """Equation (1): structured scan then brute-force distances."""
    t0 = inputs.n * params.t0_per_row
    return t0 + inputs.s * inputs.n * params.c_d


def cost_plan_b(inputs: CostInputs, params: CostModelParams) -> float:
    """Equation (2): pre-filter bitmap ANN scan with optional refine."""
    s = inputs.clamped_s()
    t0 = inputs.n * params.t0_per_row
    scan = inputs.gamma * inputs.n * (1.0 / s) * (params.c_p + s * params.c_c)
    refine = params.sigma * inputs.k * params.c_d
    return t0 + scan + refine


def cost_plan_c(inputs: CostInputs, params: CostModelParams) -> float:
    """Equation (3): post-filter iterative ANN scan."""
    s = inputs.clamped_s()
    scan = inputs.beta * inputs.n * (1.0 / s) * params.c_c
    refine = params.sigma * inputs.k * params.c_d
    return scan + refine


def plan_costs(inputs: CostInputs, params: CostModelParams) -> Dict[str, float]:
    """All three plan costs keyed 'A'/'B'/'C'."""
    return {
        "A": cost_plan_a(inputs, params),
        "B": cost_plan_b(inputs, params),
        "C": cost_plan_c(inputs, params),
    }
