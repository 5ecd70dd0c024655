"""The observability plane: traces, metrics, events, slowlog, SLOs.

Five complementary surfaces measuring *simulated* time from the shared
:class:`~repro.simulate.clock.SimulatedClock`; spans also carry the wall
clock, and are the only place it is recorded:

* **Traces** (:mod:`repro.observe.trace`) — one span tree per query,
  both clocks on every span; ``EXPLAIN ANALYZE`` renders them and
  :func:`~repro.observe.trace.profile` folds them per span name.
* **Metrics** (:mod:`repro.simulate.metrics`,
  :mod:`repro.observe.export`) — counters, gauges and latencies, each
  gauge or latency one :class:`~repro.simulate.metrics.Series` of raw
  observations; Prometheus exposition via ``render()``.
* **Events** (:mod:`repro.observe.events`) — bounded structured log of
  control-plane transitions (admission, WAL commits, manifest swaps,
  cache promotions, compactions).
* **Slow-query log** (:mod:`repro.observe.slowlog`) — per-query flight
  records with plan, cache deltas, and trace; ``SHOW SLOW QUERIES``.
* **SLOs** (:mod:`repro.observe.slo`) — multi-window burn-rate alerts
  over serving latency and rejection rate.

The span model and metric name catalog are documented in DESIGN.md
("Observability") and README.md.
"""

from repro.observe.events import Event, EventLog, emit_event
from repro.observe.export import MetricsExporter
from repro.observe.slo import SLOMonitor, SLObjective
from repro.observe.slowlog import FlightRecord, SlowQueryLog, SlowQueryReport
from repro.observe.trace import Span, Tracer
from repro.simulate.metrics import MetricRegistry, Series

__all__ = [
    "Event",
    "EventLog",
    "FlightRecord",
    "MetricRegistry",
    "MetricsExporter",
    "SLOMonitor",
    "SLObjective",
    "Series",
    "SlowQueryLog",
    "SlowQueryReport",
    "Span",
    "Tracer",
    "emit_event",
]
