"""Metrics + trace export: the public observability surface.

Benches, tests, and the REPL consume these views instead of reading
component internals.  :class:`MetricsExporter` wraps one
:class:`~repro.simulate.metrics.MetricRegistry` (and optionally the
engine tracer, event log, and slow-query log) and exposes

* :meth:`MetricsExporter.as_dict` — a JSON-safe snapshot, and
* :meth:`MetricsExporter.render` — Prometheus-style text exposition.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.observe.events import EventLog
from repro.observe.slowlog import SlowQueryLog
from repro.observe.trace import Tracer
from repro.simulate.metrics import MetricRegistry


class MetricsExporter:
    """Read-only export facade over a registry and optional trace state."""

    def __init__(
        self,
        registry: MetricRegistry,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        slowlog: Optional[SlowQueryLog] = None,
    ) -> None:
        self._registry = registry
        self._tracer = tracer
        self._events = events
        self._slowlog = slowlog

    def counter(self, name: str) -> int:
        """One counter's value (zero when absent).

        Reads the registry directly: building a full :meth:`as_dict`
        snapshot (latency summaries, trace serialization) per
        single-counter read made pollers that sample one counter in a
        loop quadratic in trace size.
        """
        return int(self._registry.count(name))

    def gauge(self, name: str, default: float = 0.0) -> float:
        """One gauge's current value: its most recent observation, or
        ``default`` when the gauge was never recorded."""
        series = self._registry.samples.get(name)
        if series is None or not series.count:
            return default
        return series.last

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot of counters, latency summaries and gauges.

        When a tracer is attached the most recent root span tree rides
        along under ``"last_trace"`` (None when no query has run); an
        attached event log adds per-type counts under ``"events"`` and a
        slow-query log adds its flight records under ``"slow_queries"``.
        """
        snapshot: Dict[str, Any] = self._registry.as_dict()
        if self._tracer is not None:
            root = self._tracer.last_root()
            snapshot["last_trace"] = root.to_dict() if root is not None else None
        if self._events is not None:
            snapshot["events"] = self._events.summary()
        if self._slowlog is not None:
            snapshot["slow_queries"] = [
                record.to_dict() for record in self._slowlog.records()
            ]
        return snapshot

    def render(self) -> str:
        """Prometheus-style text exposition of the registry."""
        return self._registry.render()
