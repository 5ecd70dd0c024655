"""SLO-burn-driven fleet autoscaling on the simulated clock.

The autoscaler closes the loop between the PR-8 SLO monitor and fleet
membership: sustained burn (both the fast and slow windows above the
scale-out threshold) adds a warehouse — masked by default, so the new
capacity arrives warm — and a quiet burn signal below the scale-in
threshold removes one.  A cooldown (simulated seconds) separates
actions so one hot window cannot stampede the fleet, and every decision
is deterministic: same workload, same clock, same scale events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.observe.slo import SLOMonitor


@dataclass
class AutoscalerPolicy:
    """When to act on the watched objective's burn rates."""

    objective: str
    # Scale out when BOTH windows burn at least this fast (multiples of
    # the error-budget burn rate; 1.0 = spending budget exactly on pace).
    scale_out_burn: float = 1.0
    # Scale in when BOTH windows burn at most this slowly.
    scale_in_burn: float = 0.1
    min_warehouses: int = 1
    max_warehouses: int = 8
    cooldown_s: float = 30.0
    # Join mode for scale-outs; None defers to fleet.MASKED_JOINS.
    masked: Optional[bool] = None


@dataclass
class ScaleDecision:
    """One autoscaler action, for history and tests."""

    at: float
    action: str  # "scale_out" | "scale_in"
    warehouse: Optional[str]
    fast_burn: float
    slow_burn: float
    fleet_size: int


class FleetAutoscaler:
    """Turns SLO burn rates into fleet scale events."""

    def __init__(
        self,
        fleet,
        monitor: SLOMonitor,
        policy: AutoscalerPolicy,
        preloader=None,
    ) -> None:
        self.fleet = fleet
        self.monitor = monitor
        self.policy = policy
        self.preloader = preloader
        self.history: List[ScaleDecision] = []
        self._last_action_at = float("-inf")

    # ------------------------------------------------------------------
    # Feeding (direct-execution paths without a ServingFrontend)
    # ------------------------------------------------------------------
    def observe_latency(self, lane: str, latency_s: float) -> None:
        """Feed one completed query's latency to matching objectives."""
        for objective in self.monitor.objectives:
            if objective.kind != "latency":
                continue
            if objective.lane is not None and objective.lane != lane:
                continue
            self.monitor.record(
                objective.name, bad=latency_s > objective.threshold_s
            )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def tick(self) -> Optional[str]:
        """Evaluate the objective and maybe act; returns the action taken.

        Also polls the fleet so warehouses whose masked warm-up finished
        enter the ring even between queries.
        """
        self.fleet.poll()
        status = self.monitor.evaluate().get(self.policy.objective)
        if status is None:
            return None
        now = self.fleet.clock.now
        if now - self._last_action_at < self.policy.cooldown_s:
            return None
        fast = status["fast_burn"]
        slow = status["slow_burn"]
        # Membership counts pending warehouses: capacity already bought
        # (warming) must stop a second scale-out from piling on.
        provisioned = self.fleet.size + len(self.fleet.pending)
        if (
            fast >= self.policy.scale_out_burn
            and slow >= self.policy.scale_out_burn
            and provisioned < self.policy.max_warehouses
        ):
            name = self.fleet.add_warehouse(
                masked=self.policy.masked, preloader=self.preloader
            )
            self._record("scale_out", name, fast, slow, now)
            return "scale_out"
        if (
            fast <= self.policy.scale_in_burn
            and slow <= self.policy.scale_in_burn
            and status["slow_total"] > 0
            and self.fleet.size > self.policy.min_warehouses
            and not self.fleet.pending
        ):
            name = self.fleet.remove_warehouse()
            if name is None:
                return None
            self._record("scale_in", name, fast, slow, now)
            return "scale_in"
        return None

    def _record(
        self, action: str, warehouse: Optional[str],
        fast: float, slow: float, now: float,
    ) -> None:
        self._last_action_at = now
        self.history.append(
            ScaleDecision(
                at=now, action=action, warehouse=warehouse,
                fast_burn=fast, slow_burn=slow,
                fleet_size=self.fleet.size + len(self.fleet.pending),
            )
        )
