"""Tests for metric collectors."""

import pytest

from repro.simulate.metrics import (
    MetricRegistry,
    Series,
    ThroughputWindow,
    percentile,
)


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 99) == 5.0

    def test_median_of_two(self):
        assert percentile([1.0, 3.0], 50) == pytest.approx(2.0)

    def test_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)


def series_of(values):
    series = Series()
    for value in values:
        series.record(value)
    return series


class TestLatencyRecorder:
    def test_record_and_count(self):
        rec = series_of([0.1, 0.2, 0.3])
        assert rec.count == 3
        assert rec.values == [0.1, 0.2, 0.3]
        assert rec.last == 0.3
        assert Series().last is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Series().record(-0.1)

    def test_percentile_empty_window_is_none(self):
        # Regression: live tail polling (serving load generator) samples
        # p99 before the first completion; an empty window answers None
        # instead of raising out of the module-level percentile().
        assert Series().percentile(99.0) is None

    def test_percentile_nonempty(self):
        rec = series_of([0.3, 0.1, 0.2])
        assert rec.percentile(50) == pytest.approx(0.2)
        assert rec.percentile(100) == pytest.approx(0.3)

    def test_summary(self):
        rec = series_of([0.1, 0.2, 0.3, 0.4, 0.5])
        summary = rec.summary()
        assert summary.count == 5
        assert summary.mean == pytest.approx(0.3)
        assert summary.p50 == pytest.approx(0.3)
        assert summary.minimum == 0.1
        assert summary.maximum == 0.5

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            Series().summary()

    def test_summary_as_dict(self):
        rec = series_of([0.1, 0.2])
        d = rec.summary().as_dict()
        assert set(d) == {"count", "mean", "p50", "p95", "p99", "min", "max"}


class TestThroughputWindow:
    def test_series_buckets(self):
        window = ThroughputWindow(1.0)
        for t in (0.1, 0.2, 1.5, 2.9):
            window.record(t)
        series = window.series()
        assert series == [(0.0, 2.0), (1.0, 1.0), (2.0, 1.0)]

    def test_gap_buckets_reported_as_zero(self):
        window = ThroughputWindow(1.0)
        window.record(0.5)
        window.record(3.5)
        series = dict(window.series())
        assert series[1.0] == 0.0 and series[2.0] == 0.0

    def test_empty(self):
        assert ThroughputWindow(1.0).series() == []

    def test_bad_bucket_width(self):
        with pytest.raises(ValueError):
            ThroughputWindow(0)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            ThroughputWindow(1.0).record(-1)


class TestMetricRegistry:
    def test_counters(self):
        registry = MetricRegistry()
        registry.incr("a")
        registry.incr("a", 4)
        assert registry.count("a") == 5
        assert registry.count("missing") == 0

    def test_latency_recorders(self):
        registry = MetricRegistry()
        registry.record_latency("q", 0.2)
        assert registry.latency("q").values == [0.2]

    def test_gauges_are_float_series_beside_the_counters(self):
        registry = MetricRegistry()
        registry.gauge("burn", 2.7)
        registry.gauge("burn", 0.9)
        assert registry.sampled("burn").values == [2.7, 0.9]
        assert registry.count("burn") == 0
        assert registry.as_dict()["samples"]["burn"]["last"] == 0.9

    def test_reset(self):
        registry = MetricRegistry()
        registry.incr("a")
        registry.record_latency("q", 0.1)
        registry.reset()
        assert registry.count("a") == 0
        assert registry.latency("q").count == 0

    def test_as_dict_shape(self):
        registry = MetricRegistry()
        registry.incr("hits", 3)
        registry.record_latency("q", 0.1)
        registry.latency("silent")  # no observations → omitted
        exported = registry.as_dict()
        assert exported["counters"] == {"hits": 3}
        assert exported["latencies"]["q"]["count"] == 1
        assert "silent" not in exported["latencies"]
        assert set(exported) == {"counters", "latencies", "samples"}

    def test_render_prometheus_text(self):
        registry = MetricRegistry()
        registry.incr("cache.hits", 2)
        registry.record_latency("query.latency", 0.25)
        text = registry.render()
        assert "# TYPE cache_hits_total counter" in text
        assert "cache_hits_total 2" in text
        assert 'query_latency_seconds{quantile="0.5"} 0.25' in text
        assert "query_latency_seconds_count 1" in text
        assert "_bucket" not in text
