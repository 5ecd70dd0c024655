"""SLO objectives with multi-window burn-rate alerting.

An :class:`SLObjective` states a promise over the serving tier — "99%
of interactive queries finish under 5 simulated ms", "99.9% of requests
are not rejected" — and :class:`SLOMonitor` tracks how fast each
objective is burning its error budget, SRE-workbook style: one *fast*
window catches sharp regressions quickly, one *slow* window keeps brief
blips from paging, and the alert fires only when **both** windows burn
above the threshold.

Burn rate is ``bad_fraction / (1 - target)``: 1.0 means failing at
exactly the budgeted rate, higher means the budget exhausts that many
times faster than promised.  Windows are measured in *simulated*
seconds on the engine clock, so `bench_serving.py` and the elasticity
bench trip (or hold clear) alerts deterministically.

The monitor exports ``slo.<objective>.fast_burn`` / ``slow_burn`` /
``alerting`` gauges and emits an ``slo.alert`` event on every
firing/cleared transition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.observe.events import emit_event
from repro.simulate.clock import SimulatedClock
from repro.simulate.metrics import MetricRegistry

# Statuses counted as rejections against an availability objective.
_REJECTED_STATUSES = ("rejected_admission", "rejected_quota")


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective.

    ``kind`` selects what a serving reply means to this objective:

    * ``"latency"`` — completed queries only; bad when ``latency_s``
      exceeds ``threshold_s``.
    * ``"rejection"`` — every terminal reply; bad when admission or
      quota rejected it.

    ``lane`` filters latency objectives to one serving lane (None
    observes all lanes).  Windows are simulated seconds.
    """

    name: str
    kind: str  # "latency" | "rejection"
    target: float  # promised good fraction, e.g. 0.99
    threshold_s: float = 0.0
    lane: Optional[str] = None
    fast_window_s: float = 5.0
    slow_window_s: float = 60.0
    alert_burn_rate: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "rejection"):
            raise ValueError(f"unknown SLO kind: {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1): {self.target}")
        if self.fast_window_s >= self.slow_window_s:
            raise ValueError(
                f"fast window must be shorter than slow: "
                f"{self.fast_window_s} >= {self.slow_window_s}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


class _Window:
    """Sliding window of (timestamp, bad) observations with O(1) stats."""

    def __init__(self, duration_s: float) -> None:
        self.duration_s = duration_s
        self._events: Deque[Tuple[float, bool]] = deque()
        self.total = 0
        self.bad = 0

    def add(self, timestamp: float, is_bad: bool) -> None:
        self._events.append((timestamp, is_bad))
        self.total += 1
        if is_bad:
            self.bad += 1
        self.evict(timestamp)

    def evict(self, now: float) -> None:
        cutoff = now - self.duration_s
        events = self._events
        while events and events[0][0] < cutoff:
            _, was_bad = events.popleft()
            self.total -= 1
            if was_bad:
                self.bad -= 1

    def bad_fraction(self) -> float:
        return (self.bad / self.total) if self.total else 0.0


class _Tracked:
    """One objective plus its two windows and current alert state."""

    def __init__(self, objective: SLObjective) -> None:
        self.objective = objective
        self.fast = _Window(objective.fast_window_s)
        self.slow = _Window(objective.slow_window_s)
        self.alerting = False
        self.transitions = 0

    def add(self, timestamp: float, is_bad: bool) -> None:
        self.fast.add(timestamp, is_bad)
        self.slow.add(timestamp, is_bad)

    def burns(self, now: float) -> Tuple[float, float]:
        self.fast.evict(now)
        self.slow.evict(now)
        budget = self.objective.error_budget
        return (
            self.fast.bad_fraction() / budget,
            self.slow.bad_fraction() / budget,
        )


class SLOMonitor:
    """Tracks objectives over serving replies (or raw observations).

    Attach to a :class:`~repro.serving.frontend.ServingFrontend` by
    assigning ``frontend.slo = monitor`` — the frontend then feeds every
    terminal reply through :meth:`observe_reply`.  Benches without a
    frontend feed :meth:`record` directly.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self._clock = clock
        self._metrics = metrics
        self._tracked: Dict[str, _Tracked] = {}

    def add_objective(self, objective: SLObjective) -> SLObjective:
        if objective.name in self._tracked:
            raise ValueError(f"duplicate SLO objective: {objective.name!r}")
        self._tracked[objective.name] = _Tracked(objective)
        return objective

    @property
    def objectives(self) -> List[SLObjective]:
        return [tracked.objective for tracked in self._tracked.values()]

    # ------------------------------------------------------------------
    # Feeding observations
    # ------------------------------------------------------------------
    def observe_reply(self, lane: str, reply: Any) -> None:
        """Feed one terminal serving reply to every matching objective."""
        now = self._clock.now
        for tracked in self._tracked.values():
            objective = tracked.objective
            if objective.kind == "latency":
                if objective.lane is not None and objective.lane != lane:
                    continue
                if reply.status != "ok":
                    continue
                tracked.add(now, reply.latency_s > objective.threshold_s)
            else:  # rejection: every terminal outcome is in the denominator
                if objective.lane is not None and objective.lane != lane:
                    continue
                tracked.add(now, reply.status in _REJECTED_STATUSES)

    def record(
        self, name: str, *, bad: bool, timestamp: Optional[float] = None
    ) -> None:
        """Feed one raw good/bad observation into objective ``name``.

        The generic entry point for benches measuring something other
        than serving replies (the elasticity bench records per-phase
        query latencies against its own objective).
        """
        tracked = self._tracked.get(name)
        if tracked is None:
            raise KeyError(f"unknown SLO objective: {name!r}")
        tracked.add(
            self._clock.now if timestamp is None else timestamp, bad
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> Dict[str, Dict[str, Any]]:
        """Burn rates and alert state per objective, as of clock-now.

        Publishes ``slo.<name>.fast_burn`` / ``slow_burn`` / ``alerting``
        gauges into the attached registry and emits an ``slo.alert``
        event on each firing/cleared transition.
        """
        now = self._clock.now
        out: Dict[str, Dict[str, Any]] = {}
        for name, tracked in self._tracked.items():
            objective = tracked.objective
            fast_burn, slow_burn = tracked.burns(now)
            alerting = (
                fast_burn >= objective.alert_burn_rate
                and slow_burn >= objective.alert_burn_rate
            )
            if alerting != tracked.alerting:
                tracked.alerting = alerting
                tracked.transitions += 1
                if self._metrics is not None:
                    emit_event(
                        self._metrics, "slo.alert", objective=name,
                        state="firing" if alerting else "cleared",
                        fast_burn=round(fast_burn, 6),
                        slow_burn=round(slow_burn, 6),
                    )
            if self._metrics is not None:
                self._metrics.gauge(f"slo.{name}.fast_burn", fast_burn)
                self._metrics.gauge(f"slo.{name}.slow_burn", slow_burn)
                self._metrics.gauge(f"slo.{name}.alerting", float(alerting))
            out[name] = {
                "kind": objective.kind,
                "target": objective.target,
                "alert_burn_rate": objective.alert_burn_rate,
                "fast_burn": fast_burn,
                "slow_burn": slow_burn,
                "fast_total": tracked.fast.total,
                "slow_total": tracked.slow.total,
                "alerting": alerting,
                "transitions": tracked.transitions,
            }
        return out

    def alerting(self, name: str) -> bool:
        """Current alert state of one objective (evaluates first)."""
        status = self.evaluate()
        if name not in status:
            raise KeyError(f"unknown SLO objective: {name!r}")
        return bool(status[name]["alerting"])

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (objective config + current evaluation)."""
        status = self.evaluate()
        for name, tracked in self._tracked.items():
            objective = tracked.objective
            status[name]["threshold_s"] = objective.threshold_s
            status[name]["lane"] = objective.lane
            status[name]["fast_window_s"] = objective.fast_window_s
            status[name]["slow_window_s"] = objective.slow_window_s
        return status
