"""Prometheus text exposition correctness for ``MetricRegistry.render``.

A scrape endpoint that emits malformed names, unescaped labels, or
one family under two types fails silently at the monitoring layer — the
engine looks healthy while every dashboard is empty.  These tests pin
the exposition contract: name sanitization of the repo's dotted metric
names, label-value escaping, counter / gauge / summary series shape,
one ``# TYPE`` per family, and the empty-registry render.
"""

import pytest

from repro.simulate.metrics import (
    MetricRegistry,
    _prom_label_value,
    _prom_name,
)
from tests.helpers import parse_exposition


class TestNameSanitization:
    def test_dotted_names_become_underscores(self):
        assert _prom_name("serving.queue_depth") == "serving_queue_depth"
        assert _prom_name("slo.interactive_latency.fast_burn") == (
            "slo_interactive_latency_fast_burn"
        )

    def test_every_non_alnum_character_is_mangled(self):
        assert _prom_name("cache/memory-hits %") == "cache_memory_hits__"

    def test_leading_digit_gets_prefixed(self):
        assert _prom_name("99th.latency") == "_99th_latency"

    def test_already_clean_names_pass_through(self):
        assert _prom_name("wal_flushes_total") == "wal_flushes_total"

    def test_render_applies_sanitization_to_counters(self):
        registry = MetricRegistry()
        registry.incr("serving.admitted")
        values, types = parse_exposition(registry.render())
        assert values["serving_admitted_total"] == 1
        assert ("serving_admitted_total", "counter") in types


class TestLabelEscaping:
    def test_plain_value_is_quoted(self):
        assert _prom_label_value("min") == '"min"'

    def test_backslash_quote_and_newline_are_escaped(self):
        assert _prom_label_value('a\\b"c\nd') == '"a\\\\b\\"c\\nd"'

    def test_non_string_values_coerce(self):
        assert _prom_label_value(42) == '"42"'


class TestCounterAndSampleSeries:
    def test_counter_renders_total_suffix(self):
        registry = MetricRegistry()
        registry.incr("wal.flushes", 3)
        values, _ = parse_exposition(registry.render())
        assert values["wal_flushes_total"] == 3

    def test_sampled_gauge_series(self):
        registry = MetricRegistry()
        for depth in (2, 8, 5):
            registry.gauge("serving.queue_depth", depth)
        values, types = parse_exposition(registry.render())
        assert ("serving_queue_depth", "gauge") in types
        assert values["serving_queue_depth"] == 5  # last observation
        assert values['serving_queue_depth{stat="min"}'] == 2
        assert values['serving_queue_depth{stat="max"}'] == 8
        assert values['serving_queue_depth{stat="mean"}'] == 5
        assert values["serving_queue_depth_samples_count"] == 3

    def test_latency_summary_series(self):
        registry = MetricRegistry()
        for value in (0.01, 0.02, 0.03, 0.04):
            registry.record_latency("query.latency", value)
        values, types = parse_exposition(registry.render())
        # One summary family per latency, and nothing else under its name.
        assert {t for t in types if t[0] == "query_latency_seconds"} == {
            ("query_latency_seconds", "summary")
        }
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'query_latency_seconds{{quantile="{quantile}"}}' in values
        assert values["query_latency_seconds_sum"] == pytest.approx(0.10)
        assert values["query_latency_seconds_count"] == 4


class TestRenderEdges:
    def test_empty_registry_renders_empty_string(self):
        assert MetricRegistry().render() == ""

    def test_unobserved_series_are_omitted(self):
        registry = MetricRegistry()
        registry.latency("touched.but_empty")  # series with no values
        registry.sampled("empty.gauge")
        assert registry.render() == ""

    def test_render_output_is_line_parseable(self):
        registry = MetricRegistry()
        registry.incr("a.b")
        registry.gauge("c.d", 1.0)
        registry.record_latency("e.f", 0.5)
        # Every non-comment line must be "<series> <float>".
        values, types = parse_exposition(registry.render())
        # counter + gauge + summary.
        assert values and len(types) == 3
