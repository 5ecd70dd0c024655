"""Simulation substrate: simulated clock, device cost model, metric collectors.

The paper's evaluation ran on 80-core servers, Kubernetes pods, and real
object storage.  This package replaces those with a deterministic
discrete-time substrate: operators *charge* costs (device latencies,
bandwidth-proportional transfer times, per-distance compute costs) to a
:class:`SimulatedClock`, and benchmark harnesses read QPS and latency off
that clock.  This keeps the paper's performance *shapes* (e.g. object
storage is orders of magnitude slower than RAM) reproducible on any
machine.
"""

from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry, Series, ThroughputWindow

__all__ = [
    "SimulatedClock",
    "DeviceCostModel",
    "MetricRegistry",
    "Series",
    "ThroughputWindow",
]
