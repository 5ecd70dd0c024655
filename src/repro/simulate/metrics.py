"""Metric collectors: observation series, throughput windows, counters.

Benchmarks record per-query simulated latencies in a :class:`Series`
and derive QPS either from total time (``count / span``) or from
sliding :class:`ThroughputWindow` samples (used by the elasticity
experiment, Fig 18, which needs QPS *during* scaling).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of pre-sorted data."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(sorted_values[low])
    frac = rank - low
    return float(sorted_values[low] * (1 - frac) + sorted_values[high] * frac)


@dataclass
class LatencySummary:
    """Frozen summary of a :class:`Series` (seconds, for a latency)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view, convenient for printing bench tables."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }


class Series:
    """Raw observations of one latency or gauge, in record order.

    A latency is a duration; a gauge is a point-in-time fact that varies
    over a run (queue depth, manifest id, burn rate), observed at
    instants.  Both keep every observation: benches read distributions
    over them, and a gauge's current value is its last observation.
    """

    def __init__(self) -> None:
        self._values: List[float] = []

    def record(self, value: float) -> None:
        """Record one observation; negative values are invalid."""
        if value < 0:
            raise ValueError(f"negative observation: {value}")
        self._values.append(value)

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return len(self._values)

    @property
    def values(self) -> List[float]:
        """Copy of the raw observations in record order."""
        return list(self._values)

    @property
    def last(self) -> Optional[float]:
        """The most recent observation, or ``None`` with none."""
        return self._values[-1] if self._values else None

    def percentile(self, q: float) -> Optional[float]:
        """Percentile ``q`` in [0, 100], or ``None`` with no observations.

        Unlike :meth:`summary`, an empty window is not an error: pollers
        (the serving load generator reads tail latency mid-run) may ask
        before the first completion lands.
        """
        if not self._values:
            return None
        return percentile(sorted(self._values), q)

    def summary(self) -> LatencySummary:
        """Percentile summary of everything recorded so far."""
        if not self._values:
            raise ValueError("no observations recorded")
        ordered = sorted(self._values)
        return LatencySummary(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 50),
            p95=percentile(ordered, 95),
            p99=percentile(ordered, 99),
            minimum=ordered[0],
            maximum=ordered[-1],
        )


class ThroughputWindow:
    """Time-bucketed completion counter for QPS-over-time series.

    Events are recorded at simulated timestamps; :meth:`series` returns
    ``(bucket_start, qps)`` pairs.  Used by the elasticity bench, which
    plots QPS while the virtual warehouse scales.
    """

    def __init__(self, bucket_seconds: float) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket width must be positive")
        self.bucket_seconds = bucket_seconds
        self._buckets: Dict[int, int] = defaultdict(int)

    def record(self, timestamp: float) -> None:
        """Record one query completion at ``timestamp``."""
        if timestamp < 0:
            raise ValueError(f"negative timestamp: {timestamp}")
        self._buckets[int(timestamp // self.bucket_seconds)] += 1

    def series(self) -> List[tuple]:
        """Sorted ``(bucket_start_time, qps)`` pairs covering observed buckets."""
        if not self._buckets:
            return []
        first = min(self._buckets)
        last = max(self._buckets)
        out = []
        for bucket in range(first, last + 1):
            count = self._buckets.get(bucket, 0)
            out.append((bucket * self.bucket_seconds, count / self.bucket_seconds))
        return out


@dataclass
class MetricRegistry:
    """Named counters, gauges and latencies shared by a component tree.

    One record per observation: :meth:`incr` adds to a counter,
    :meth:`gauge` and :meth:`record_latency` append to a :class:`Series`.
    A single registry is threaded through the engine.  Tests and benches
    consume the *exported* views — :meth:`count`, :meth:`as_dict`, and
    the Prometheus-style :meth:`render` — instead of reaching into
    private component state.
    """

    counters: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    latencies: Dict[str, Series] = field(default_factory=lambda: defaultdict(Series))
    # The gauges: each name's observations, exported as its last value.
    samples: Dict[str, Series] = field(default_factory=lambda: defaultdict(Series))
    # Optional structured event log (repro.observe.events.EventLog),
    # attached by the engine that owns this registry.  Typed as Any so
    # the simulate layer does not import observe.
    events: Any = None

    def incr(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name`` by ``delta``."""
        self.counters[name] += delta

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never incremented)."""
        return self.counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        """Record one observation of gauge ``name``'s current value.

        For point-in-time facts like ``mvcc.manifest_id`` or
        ``serving.queue_depth`` where increments would be meaningless.
        """
        self.samples[name].record(float(value))

    def record_latency(self, name: str, seconds: float) -> None:
        """Record a latency observation under ``name``."""
        self.latencies[name].record(seconds)

    def sampled(self, name: str) -> Series:
        """Observations of gauge ``name``, created on first use."""
        return self.samples[name]

    def latency(self, name: str) -> Series:
        """Observations of latency ``name``, created on first use."""
        return self.latencies[name]

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Exported snapshot: the public surface benches assert against.

        ``{"counters": {...}, "latencies": {name: summary-dict},
        "samples": {gauge name: last/min/max/mean/count}}``.  Series with
        no observations are omitted rather than raising.
        """
        return {
            "counters": dict(self.counters),
            "latencies": {
                name: series.summary().as_dict()
                for name, series in self.latencies.items()
                if series.count
            },
            "samples": {
                name: _gauge_view(series)
                for name, series in self.samples.items()
                if series.count
            },
        }

    def render(self) -> str:
        """Prometheus-style text exposition of every metric.

        Counters render as ``name_total``, gauges as their last value
        plus min/max/mean, latencies as one quantile summary each.
        """
        lines: List[str] = []
        for name in sorted(self.counters):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric}_total counter")
            lines.append(f"{metric}_total {self.counters[name]}")
        for name in sorted(self.samples):
            series = self.samples[name]
            if not series.count:
                continue
            metric = _prom_name(name)
            view = _gauge_view(series)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {view['last']:.9g}")
            for stat in ("min", "max", "mean"):
                lines.append(
                    f'{metric}{{stat={_prom_label_value(stat)}}} {view[stat]:.9g}'
                )
            lines.append(f"{metric}_samples_count {view['count']}")
        for name in sorted(self.latencies):
            series = self.latencies[name]
            if not series.count:
                continue
            metric = _prom_name(name)
            summary = series.summary()
            lines.append(f"# TYPE {metric}_seconds summary")
            for label, value in (("0.5", summary.p50), ("0.95", summary.p95),
                                 ("0.99", summary.p99)):
                lines.append(f'{metric}_seconds{{quantile="{label}"}} {value:.9g}')
            lines.append(f"{metric}_seconds_sum {sum(series.values):.9g}")
            lines.append(f"{metric}_seconds_count {series.count}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero all counters and drop all observations."""
        self.counters.clear()
        self.latencies.clear()
        self.samples.clear()


def _gauge_view(series: Series) -> Dict[str, float]:
    """A gauge's export: last/min/max/mean/count of its observations."""
    summary = series.summary()
    return {
        "count": summary.count,
        "last": series.last,
        "min": summary.minimum,
        "max": summary.maximum,
        "mean": summary.mean,
    }


def _prom_name(name: str) -> str:
    """Metric name mangled to the Prometheus charset (dots → underscores)."""
    mangled = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in name)
    if mangled and mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def _prom_label_value(value: str) -> str:
    """A label value quoted and escaped per the Prometheus text format.

    Backslash, double quote, and newline are the three characters the
    exposition format requires escaping inside label values.
    """
    escaped = (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
    return f'"{escaped}"'
