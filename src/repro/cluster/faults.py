"""Fault injection for warehouse experiments (paper §II-E).

A :class:`FaultSchedule` fires worker failures and recoveries at
pre-programmed simulated times; the driver ticks it before each query.
Recovery models the paper's "failed nodes recover within seconds":
a recovered worker rejoins the ring with an empty memory cache (its
local disk, being ephemeral in this model, is also lost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.cluster.warehouse import VirtualWarehouse


@dataclass(order=True)
class _Event:
    at: float
    kind: str = field(compare=False)      # "fail" | "recover"
    worker_id: str = field(compare=False)


@dataclass
class FaultSchedule:
    """Time-ordered fail/recover events against one warehouse."""

    warehouse: VirtualWarehouse
    _events: List[_Event] = field(default_factory=list)
    fired: List[Tuple[float, str, str]] = field(default_factory=list)

    def fail_at(self, at: float, worker_id: str) -> "FaultSchedule":
        """Schedule a crash failure of ``worker_id`` at simulated ``at``."""
        self._events.append(_Event(at=at, kind="fail", worker_id=worker_id))
        self._events.sort()
        return self

    def recover_at(self, at: float, worker_id: str) -> "FaultSchedule":
        """Schedule ``worker_id`` to rejoin at simulated ``at``."""
        self._events.append(_Event(at=at, kind="recover", worker_id=worker_id))
        self._events.sort()
        return self

    def tick(self) -> List[Tuple[float, str, str]]:
        """Fire every event whose time has passed; returns what fired."""
        now = self.warehouse.clock.now
        fired_now: List[Tuple[float, str, str]] = []
        while self._events and self._events[0].at <= now:
            event = self._events.pop(0)
            if event.kind == "fail":
                self.warehouse.fail_worker(event.worker_id)
            else:
                self.warehouse.fabric.set_reachable(event.worker_id, True)
                self.warehouse.add_worker(event.worker_id)
            record = (event.at, event.kind, event.worker_id)
            self.fired.append(record)
            fired_now.append(record)
        return fired_now

    @property
    def pending(self) -> int:
        """Events not yet fired."""
        return len(self._events)

