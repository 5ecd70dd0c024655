"""Tests for the observability layer: spans, tracer, exporter, EXPLAIN."""

import json

import numpy as np
import pytest

from repro.core.database import BlendHouse, ExplainResult
from repro.executor.parallel import lane_makespan
from repro.observe.export import MetricsExporter
from repro.observe.trace import Span, Tracer, maybe_span, profile
from repro.simulate.metrics import MetricRegistry
from tests.helpers import walk_spans


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpan:
    def test_duration_measures_clock(self, clock, tracer):
        with tracer.span("op") as span:
            clock.advance(0.5)
        assert span.duration == pytest.approx(0.5)
        assert span.finished

    def test_open_span_duration_is_zero(self, tracer):
        span = tracer.start("op")
        assert span.duration == 0.0
        assert not span.finished

    def test_end_before_start_rejected(self):
        span = Span("op", start=5.0)
        with pytest.raises(ValueError):
            span.finish(1.0)

    def test_children_linked_both_ways(self, clock, tracer):
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                pass
        assert child.parent is parent
        assert parent.children == [child]

    def test_sequential_children_sum_to_at_most_parent(self, clock, tracer):
        with tracer.span("parent") as parent:
            for cost in (0.1, 0.2, 0.3):
                with tracer.span("child"):
                    clock.advance(cost)
            clock.advance(0.05)  # parent-only work
        child_total = sum(c.duration for c in parent.children)
        assert child_total == pytest.approx(0.6)
        assert child_total <= parent.duration
        assert parent.duration == pytest.approx(0.65)

    def test_find_and_find_all(self, tracer):
        with tracer.span("root"):
            with tracer.span("scan"):
                pass
            with tracer.span("scan"):
                pass
        root = tracer.last_root()
        assert root.find("scan") is root.children[0]
        assert len(root.find_all("scan")) == 2
        assert root.find("ghost") is None

    def test_to_dict_round_trips_through_json(self, clock, tracer):
        with tracer.span("root", table="t"):
            clock.advance(0.1)
        d = json.loads(json.dumps(tracer.last_root().to_dict()))
        assert d["name"] == "root"
        assert d["tags"] == {"table": "t"}
        assert d["duration"] == pytest.approx(0.1)

    def test_render_tree(self, clock, tracer):
        with tracer.span("root"):
            with tracer.span("child", tier="memory"):
                clock.advance(0.001)
        text = tracer.last_root().render()
        assert "root" in text
        assert "  child  1.000 sim-ms  [tier=memory]" in text


class TestTracer:
    def test_current_tracks_stack(self, tracer):
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_finish_closes_abandoned_descendants(self, clock, tracer):
        outer = tracer.start("outer")
        tracer.start("inner")
        clock.advance(0.1)
        tracer.finish(outer)
        assert outer.finished
        assert outer.children[0].finished

    def test_finish_unknown_span_rejected(self, tracer):
        foreign = Span("foreign", start=0.0)
        with pytest.raises(ValueError):
            tracer.finish(foreign)

    def test_annotate_tags_innermost(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.annotate("tier", "disk")
        assert inner.tags["tier"] == "disk"
        assert "tier" not in outer.tags

    def test_annotate_without_open_span_is_noop(self, tracer):
        tracer.annotate("tier", "disk")  # must not raise

    def test_roots_bounded(self, clock, metrics):
        tracer = Tracer(clock, max_roots=3, metrics=metrics)
        for i in range(5):
            with tracer.span(f"q{i}"):
                pass
        assert [root.name for root in tracer.roots] == ["q2", "q3", "q4"]
        # The overflow is counted, not silently vanished.
        assert tracer.roots_dropped == metrics.count("trace.roots_dropped") == 2

    def test_reset(self, tracer):
        with tracer.span("q"):
            pass
        tracer.reset()
        assert tracer.last_root() is None
        assert tracer.current is None

    def test_maybe_span_without_tracer_is_noop(self):
        with maybe_span(None, "op") as span:
            assert span is None

    def test_maybe_span_with_tracer_opens_span(self, tracer):
        with maybe_span(tracer, "op", k=1) as span:
            assert span is tracer.current
        assert tracer.last_root().tags == {"k": 1}


class TestMetricsExporter:
    def test_counter_reads_public_dict(self):
        registry = MetricRegistry()
        registry.incr("hits", 7)
        exporter = MetricsExporter(registry)
        assert exporter.counter("hits") == 7
        assert exporter.counter("absent") == 0

    def test_as_dict_includes_last_trace(self, clock):
        registry = MetricRegistry()
        tracer = Tracer(clock)
        exporter = MetricsExporter(registry, tracer)
        assert exporter.as_dict()["last_trace"] is None
        with tracer.span("query"):
            clock.advance(0.2)
        trace = exporter.as_dict()["last_trace"]
        assert trace["name"] == "query"
        assert trace["duration"] == pytest.approx(0.2)

    def test_as_json_is_valid(self, clock):
        registry = MetricRegistry()
        registry.incr("a")
        registry.record_latency("q", 0.1)
        exporter = MetricsExporter(registry, Tracer(clock))
        parsed = json.loads(exporter.as_json(indent=2))
        assert parsed["counters"]["a"] == 1

    def test_render_delegates_to_registry(self):
        registry = MetricRegistry()
        registry.incr("a")
        assert MetricsExporter(registry).render() == registry.render()


DIM = 8


def _seeded_db(rows=300, segment_rows=None):
    db = BlendHouse()
    db.execute(
        f"CREATE TABLE t (id UInt64, views UInt64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={DIM}'))"
    )
    if segment_rows is not None:
        db.table("t").writer.config.max_segment_rows = segment_rows
    rng = np.random.default_rng(7)
    db.insert_rows(
        "t",
        [
            {
                "id": i,
                "views": int(rng.integers(0, 1000)),
                "embedding": rng.normal(size=DIM).astype(np.float32),
            }
            for i in range(rows)
        ],
    )
    return db


def _hybrid_sql(prefix=""):
    vec = "[" + ", ".join(["0.1"] * DIM) + "]"
    return (
        f"{prefix}SELECT id, dist FROM t WHERE views < 800 "
        f"ORDER BY L2Distance(embedding, {vec}) AS dist LIMIT 5"
    )


class TestExplainAnalyze:
    def test_span_tree_covers_query_stages(self):
        db = _seeded_db()
        result = db.execute(_hybrid_sql("EXPLAIN ANALYZE "))
        assert isinstance(result, ExplainResult)
        root = result.trace
        for stage in ("parse", "plan", "prune", "execute", "segment_scan"):
            assert root.find(stage) is not None, stage
        scan = root.find("segment_scan")
        assert scan.find("index_resolve").tags["tier"] == "built"
        child_total = sum(child.duration for child in root.children)
        assert child_total <= root.duration + 1e-12

    def test_plan_cache_attribution(self):
        db = _seeded_db()
        first = db.execute(_hybrid_sql("EXPLAIN ANALYZE "))
        second = db.execute(_hybrid_sql("EXPLAIN ANALYZE "))
        assert first.trace.find("plan").tags["plan_cache"] == "miss"
        assert second.trace.find("plan").tags["plan_cache"] == "hit"

    def test_explain_shares_plan_cache_with_plain_query(self):
        # EXPLAIN-prefixed and plain statements must normalize to the
        # same plan-cache signature.
        db = _seeded_db()
        db.execute(_hybrid_sql())
        result = db.execute(_hybrid_sql("EXPLAIN ANALYZE "))
        assert result.trace.find("plan").tags["plan_cache"] == "hit"

    def test_render_contains_rows_and_time(self):
        db = _seeded_db()
        text = db.execute(_hybrid_sql("EXPLAIN ANALYZE ")).render()
        assert "EXPLAIN ANALYZE" in text
        assert "strategy=" in text
        assert "sim-ms" in text
        assert "(5 rows" in text

    def test_plain_explain_does_not_execute(self):
        db = _seeded_db()
        before = db.export_metrics().counter("delete_bitmap.filters")
        result = db.execute(_hybrid_sql("EXPLAIN "))
        assert result.result is None
        assert result.trace.find("execute") is None
        assert db.export_metrics().counter("delete_bitmap.filters") == before

    def test_exporter_counts_plan_cache_through_public_surface(self):
        db = _seeded_db()
        db.execute(_hybrid_sql())
        db.execute(_hybrid_sql())
        exporter = db.export_metrics()
        assert exporter.counter("plan_cache.misses") == 1
        assert exporter.counter("plan_cache.hits") == 1
        assert exporter.as_dict()["last_trace"]["name"] == "query"
        assert "plan_cache_hits_total 1" in exporter.render()


class TestExporterAccessors:
    def test_counter_avoids_full_snapshot(self):
        registry = MetricRegistry()
        registry.incr("hits", 3)
        exporter = MetricsExporter(registry)
        assert exporter.counter("hits") == 3

    def test_gauge_reads_last_observation_then_default(self):
        registry = MetricRegistry()
        registry.gauge("manifest_id", 11)
        registry.gauge("manifest_id", 12)
        exporter = MetricsExporter(registry)
        assert exporter.gauge("manifest_id") == 12.0
        assert exporter.counter("manifest_id") == 0  # not a counter
        assert exporter.gauge("absent") == 0.0
        assert exporter.gauge("absent", default=-1.0) == -1.0


class TestObserveSettings:
    def test_set_slowlog_knobs_apply_live(self):
        db = _seeded_db(rows=40)
        db.execute("SET slowlog_threshold_ms = 0.25")
        db.execute("SET slowlog_sample_every = 7")
        assert db.slowlog.threshold_s == pytest.approx(2.5e-4)
        assert db.slowlog.sample_every == 7


class TestShowSlowQueries:
    def test_slow_query_is_captured_and_shown(self):
        db = _seeded_db(rows=60)
        db.execute("SET slowlog_threshold_ms = 0")  # record everything
        db.execute(_hybrid_sql())
        report = db.execute("SHOW SLOW QUERIES")
        assert report.records, "threshold 0 must capture the query"
        record = report.records[0]
        assert record.reason == "slow"
        assert record.sql == _hybrid_sql()
        assert record.manifest_id is not None
        assert record.plan["strategy"]
        text = report.render()
        assert "slow queries:" in text and "SELECT id, dist" in text

    def test_limit_caps_rendered_records(self):
        db = _seeded_db(rows=60)
        db.execute("SET slowlog_threshold_ms = 0")
        for _ in range(4):
            db.execute(_hybrid_sql())
        limited = db.execute("SHOW SLOW QUERIES LIMIT 2")
        assert len(limited.records) == 2
        assert limited.total_recorded >= 4
        # The newest records survive the limit.
        full = db.execute("SHOW SLOW QUERIES")
        assert [r.query_id for r in limited.records] == [
            r.query_id for r in full.records[-2:]
        ]

    def test_empty_log_renders_placeholder(self):
        db = _seeded_db(rows=40)
        report = db.execute("SHOW SLOW QUERIES")
        assert report.records == []
        assert "0 shown" in report.render() or "no slow queries" in report.render()

    def test_malformed_show_raises(self):
        from repro.errors import ParseError
        db = _seeded_db(rows=40)
        with pytest.raises(ParseError):
            db.execute("SHOW FAST QUERIES")


class TestSpanClocks:
    """A span is the one timing record: simulated cost and wall time."""

    def test_duration_is_capture_aware(self, clock, tracer):
        # Inside a cost capture charges never move the clock; the span
        # must still read what its work charged.
        with tracer.span("stage") as outer:
            with clock.capturing() as captured:
                clock.advance(0.25)  # charged before the inner span opens
                with tracer.span("scan") as scan:
                    clock.advance(0.5)
                    with tracer.span("resolve") as resolve:
                        clock.advance(0.125)
            clock.advance(1.0)
        assert clock.now == pytest.approx(1.0)
        assert captured.total == pytest.approx(0.875)
        assert resolve.duration == pytest.approx(0.125)
        assert scan.duration == pytest.approx(0.625)
        assert outer.duration == pytest.approx(1.0)  # opened outside: the clock

    def test_wall_clock_on_every_span(self, clock, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                sum(range(1000))
        root = tracer.last_root()
        child = root.children[0]
        assert 0 < child.wall_s <= root.wall_s
        assert root.duration == 0.0  # nothing charged, wall time regardless
        assert root.to_dict()["children"][0]["wall_s"] == child.wall_s
        assert "wall-ms" in root.render()

    def test_held_span_is_off_the_stack_until_entered(self, clock, tracer):
        root = tracer.open("query")
        held = tracer.open("execute", root, manifest_id=3)
        assert tracer.current is None and tracer.roots == [root]
        with tracer.under(held):
            with tracer.span("scan") as scan:
                clock.advance(0.5)
        assert tracer.current is None
        assert scan.parent is held and held.parent is root
        tracer.finish(held)
        tracer.finish(root)
        assert held.finished and held.duration == pytest.approx(0.5)
        assert root.wall_s >= held.wall_s > 0

    def test_maybe_span_without_tracer_is_one_shared_context(self):
        assert maybe_span(None, "a") is maybe_span(None, "b", k=1)

    def test_profile_folds_roots_per_span_name(self, clock, tracer):
        for cost in (0.1, 0.3):
            with tracer.span("query"):
                with tracer.span("parse"):
                    pass
                with tracer.span("scan"):
                    clock.advance(cost)
        table = profile(tracer.roots)
        assert set(table) == {"query", "parse", "scan"}
        assert table["scan"]["calls"] == 2
        assert table["scan"]["sim_s"] == pytest.approx(0.4)
        assert table["scan"]["wall_per_sim"] == pytest.approx(
            table["scan"]["wall_s"] / 0.4
        )
        assert table["parse"]["wall_s"] > 0
        assert table["parse"]["wall_per_sim"] is None  # nothing to normalize by
        assert list(table)[0] == "query"  # widest wall time first
        assert profile([]) == {}

    def test_lanes_change_no_span_but_the_execute_duration(self):
        """``parallel_workers`` is simulated cores only: the ``execute``
        subtree at 4 lanes is the one at 1, span for span, cold and warm;
        only ``execute`` itself reads the shorter makespan."""
        trees = {}
        for lanes in (1, 4):
            db = _seeded_db(rows=300, segment_rows=50)
            db.execute(f"SET parallel_workers = {lanes}")
            trees[lanes] = []
            for _ in range(2):
                db.execute(_hybrid_sql())
                trees[lanes].append(db.tracer.last_root().find("execute"))
        for serial, parallel in zip(trees[1], trees[4]):
            assert serial.tags.pop("lanes") == 1 and parallel.tags.pop("lanes") == 4
            pairs = list(zip(walk_spans(serial), walk_spans(parallel), strict=True))
            assert len(serial.find_all("segment_scan")) == 6
            for one, other in pairs:
                assert (one.name, one.tags) == (other.name, other.tags)
                assert [c.name for c in one.children] == [c.name for c in other.children]
            for one, other in pairs[1:]:
                assert one.duration == other.duration, one.name  # bit-equal
            scans = [scan.duration for scan in serial.find_all("segment_scan")]
            merge = serial.find("merge_project").duration
            assert serial.duration == pytest.approx(sum(scans) + merge, rel=1e-9)
            assert parallel.duration == pytest.approx(
                lane_makespan(scans, 4) + merge, rel=1e-9
            )
            assert parallel.duration < serial.duration

    def test_engine_queries_feed_the_profile(self):
        db = _seeded_db(rows=60)
        db.tracer.reset()
        db.execute(_hybrid_sql())
        table = profile(db.tracer.roots)
        for name in ("query", "parse", "plan", "execute", "segment_scan"):
            assert table[name]["wall_s"] > 0, name
        # Captured stages used to read zero simulated seconds.
        assert table["plan"]["sim_s"] > 0
        assert table["segment_scan"]["sim_s"] > 0
