"""SLO burn-rate monitor: windows, gating, transitions, serving e2e.

The end-to-end class is the ISSUE acceptance test: an identical
serving workload runs twice on the virtual loop — once healthy, once
with an injected ``time_scale`` derating (the ``SERVING_SLOWDOWN``
lever) — and the derated run must trip the latency SLO's fast burn
deterministically while the slow-query log captures the offending
queries' full flight records.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.database import BlendHouse
from repro.observe.events import EventLog
from repro.observe.export import MetricsExporter
from repro.observe.slo import SLObjective, SLOMonitor
from repro.serving import (
    Lane,
    QueryRequest,
    ServingConfig,
    ServingFrontend,
    run_virtual,
)
from repro.simulate.metrics import MetricRegistry
from tests.helpers import vector_sql


def reply(status="ok", latency_s=0.0):
    return SimpleNamespace(status=status, latency_s=latency_s)


class TestSLObjective:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", target=0.9)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_target_outside_open_interval(self, target):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="latency", target=target)

    def test_rejects_fast_window_not_shorter_than_slow(self):
        with pytest.raises(ValueError):
            SLObjective(
                name="x", kind="latency", target=0.9,
                fast_window_s=60.0, slow_window_s=60.0,
            )

    def test_error_budget(self):
        objective = SLObjective(name="x", kind="latency", target=0.99)
        assert objective.error_budget == pytest.approx(0.01)


class TestSLOMonitor:
    def make(self, clock, **kwargs):
        monitor = SLOMonitor(clock, metrics=kwargs.pop("metrics", None))
        defaults = dict(
            name="latency", kind="latency", target=0.9, threshold_s=0.1,
            fast_window_s=1.0, slow_window_s=10.0,
        )
        defaults.update(kwargs)
        monitor.add_objective(SLObjective(**defaults))
        return monitor

    def test_duplicate_objective_rejected(self, clock):
        monitor = self.make(clock)
        with pytest.raises(ValueError):
            monitor.add_objective(
                SLObjective(name="latency", kind="latency", target=0.5)
            )

    def test_record_unknown_objective_raises(self, clock):
        with pytest.raises(KeyError):
            self.make(clock).record("nope", bad=True)

    def test_burn_rate_scales_with_error_budget(self, clock):
        monitor = self.make(clock)  # budget 0.1
        for i in range(10):
            monitor.record("latency", bad=(i < 2), timestamp=0.0)
        status = monitor.evaluate()["latency"]
        # 20% bad against a 10% budget burns at 2x.
        assert status["fast_burn"] == pytest.approx(2.0)
        assert status["slow_burn"] == pytest.approx(2.0)

    def test_windows_evict_on_simulated_time(self, clock):
        monitor = self.make(clock)
        monitor.record("latency", bad=True, timestamp=0.0)
        clock.advance(0.5)
        assert monitor.evaluate()["latency"]["fast_total"] == 1
        clock.advance(1.0)  # past the 1s fast window, inside the slow
        status = monitor.evaluate()["latency"]
        assert status["fast_total"] == 0 and status["slow_total"] == 1
        clock.advance(10.0)  # past the slow window too
        status = monitor.evaluate()["latency"]
        assert status["slow_total"] == 0
        assert status["fast_burn"] == 0.0 and status["slow_burn"] == 0.0

    def test_alert_requires_both_windows_burning(self, clock):
        monitor = self.make(clock)  # budget 0.1, alert burn 4.0
        # 9s of healthy traffic fills the slow window with good events.
        for i in range(20):
            monitor.record("latency", bad=False, timestamp=i * 0.45)
        # A sharp 0.5s burst of failures saturates the fast window.
        for i in range(5):
            monitor.record("latency", bad=True, timestamp=9.2 + i * 0.1)
        clock.advance(9.6)
        status = monitor.evaluate()["latency"]
        assert status["fast_burn"] >= 4.0
        assert status["slow_burn"] < 4.0
        assert not status["alerting"], "a brief blip must not page"
        # The failure sustains: the slow window catches up and it pages.
        for i in range(15):
            monitor.record("latency", bad=True, timestamp=9.7 + i * 0.1)
        clock.advance(11.1 - clock.now)
        status = monitor.evaluate()["latency"]
        assert status["fast_burn"] >= 4.0 and status["slow_burn"] >= 4.0
        assert status["alerting"]

    def test_transitions_emit_events_and_publish_gauges(self, clock):
        registry = MetricRegistry()
        registry.events = EventLog(clock)
        monitor = self.make(clock, metrics=registry)
        for _ in range(10):
            monitor.record("latency", bad=True, timestamp=clock.now)
        status = monitor.evaluate()["latency"]
        assert status["alerting"] and status["transitions"] == 1
        firing = registry.events.last("slo.alert")
        assert firing.fields["state"] == "firing"
        assert firing.fields["objective"] == "latency"
        gauges = MetricsExporter(registry)
        assert gauges.gauge("slo.latency.alerting") == 1.0
        assert gauges.gauge("slo.latency.fast_burn") >= 4

        # Recovery: bad events age out of both windows -> cleared.
        clock.advance(20.0)
        status = monitor.evaluate()["latency"]
        assert not status["alerting"] and status["transitions"] == 2
        assert registry.events.last("slo.alert").fields["state"] == "cleared"
        assert gauges.gauge("slo.latency.alerting") == 0.0
        # Steady state: no transition, no new event.
        total = registry.events.count("slo.alert")
        monitor.evaluate()
        assert registry.events.count("slo.alert") == total

    def test_latency_kind_ignores_failed_replies_and_other_lanes(self, clock):
        monitor = self.make(clock, lane="interactive")
        monitor.observe_reply("interactive", reply("rejected_admission"))
        monitor.observe_reply("batch", reply("ok", latency_s=9.0))
        assert monitor.evaluate()["latency"]["slow_total"] == 0
        monitor.observe_reply("interactive", reply("ok", latency_s=9.0))
        monitor.observe_reply("interactive", reply("ok", latency_s=0.01))
        status = monitor.evaluate()["latency"]
        assert status["slow_total"] == 2
        assert status["slow_burn"] == pytest.approx(5.0)  # 50% bad / 10%

    def test_rejection_kind_counts_all_terminal_replies(self, clock):
        monitor = SLOMonitor(clock)
        monitor.add_objective(SLObjective(
            name="rejections", kind="rejection", target=0.5,
        ))
        monitor.observe_reply("interactive", reply("ok", latency_s=1.0))
        monitor.observe_reply("interactive", reply("rejected_admission"))
        monitor.observe_reply("interactive", reply("rejected_quota"))
        monitor.observe_reply("interactive", reply("timeout"))
        status = monitor.evaluate()["rejections"]
        assert status["slow_total"] == 4
        # 2 of 4 rejected against a 50% budget: burn exactly 1.0.
        assert status["slow_burn"] == pytest.approx(1.0)
        assert not monitor.any_alerting()

    def test_alerting_accessor_and_as_dict(self, clock):
        monitor = self.make(clock)
        assert monitor.alerting("latency") is False
        with pytest.raises(KeyError):
            monitor.alerting("missing")
        snapshot = monitor.as_dict()["latency"]
        assert snapshot["threshold_s"] == pytest.approx(0.1)
        assert snapshot["fast_window_s"] == pytest.approx(1.0)


DIM = 8


class TestServingSLOEndToEnd:
    """Injected SERVING_SLOWDOWN (time_scale) trips the fast burn."""

    N_QUERIES = 24

    def make_db(self):
        rng = np.random.default_rng(11)
        db = BlendHouse()
        db.execute(
            "CREATE TABLE t (id UInt64, embedding Array(Float32), "
            f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
        )
        db.table("t").writer.config.max_segment_rows = 30
        db.insert_rows(
            "t",
            [
                {"id": i, "embedding": rng.normal(size=DIM).astype(np.float32)}
                for i in range(90)
            ],
        )
        return db

    def sqls(self):
        return [
            f"SELECT id, dist FROM t ORDER BY L2Distance(embedding, "
            f"{vector_sql(np.random.default_rng(s).normal(size=DIM).astype(np.float32))}"
            f") AS dist LIMIT 5"
            for s in range(self.N_QUERIES)
        ]

    def run_workload(self, time_scale, threshold_s):
        db = self.make_db()
        frontend = ServingFrontend(db, ServingConfig(time_scale=time_scale))
        slo = SLOMonitor(db.clock, metrics=db.metrics)
        slo.add_objective(SLObjective(
            name="interactive_latency", kind="latency", target=0.9,
            threshold_s=threshold_s, lane="interactive",
        ))
        db.slowlog.threshold_s = float("inf")

        async def main():
            # Warmup outside the SLO: first queries pay one-off costs
            # (index loads, plan cache misses) in both configs, which
            # would otherwise dominate a threshold meant to separate
            # healthy steady state from a derated one.
            for sql in self.sqls()[:4]:
                await frontend.submit(QueryRequest(sql=sql, lane=Lane.INTERACTIVE))
            frontend.slo = slo
            db.slowlog.threshold_s = threshold_s
            replies = []
            for sql in self.sqls():
                replies.append(await frontend.submit(
                    QueryRequest(sql=sql, lane=Lane.INTERACTIVE)
                ))
            return replies

        replies = run_virtual(main())
        assert all(r.ok for r in replies)
        return db, slo, replies

    @pytest.fixture(scope="class")
    def threshold(self):
        """2x the healthy run's worst latency: generous for a healthy
        engine, hopeless under a >=4x derating."""
        db, _, replies = self.run_workload(1.0, threshold_s=float("inf"))
        return 2.0 * max(r.latency_s for r in replies)

    def test_healthy_run_holds_clear(self, threshold):
        db, slo, _ = self.run_workload(1.0, threshold)
        status = slo.evaluate()["interactive_latency"]
        assert status["fast_burn"] == 0.0
        assert not status["alerting"]
        assert not db.slowlog.records(), "no flights below the threshold"

    def test_slowdown_trips_fast_burn_deterministically(self, threshold):
        db, slo, replies = self.run_workload(8.0, threshold)
        status = slo.evaluate()["interactive_latency"]
        # Every query breaches 2x-healthy under an 8x derating: the
        # fast window burns the full budget (bad fraction 1.0 / 0.1).
        assert status["fast_burn"] >= 4.0
        assert status["alerting"], f"slowdown must page: {status}"
        firing = db.events.last("slo.alert")
        assert firing is not None and firing.fields["state"] == "firing"
        assert db.export_metrics().gauge(
            "slo.interactive_latency.alerting"
        ) == 1

    def test_slowlog_captures_offending_flights(self, threshold):
        db, _, replies = self.run_workload(8.0, threshold)
        records = db.slowlog.records()
        assert records, "derated queries must be captured"
        flight = records[-1]
        assert flight.reason == "slow"
        assert flight.lane == "interactive"
        assert flight.latency_s > threshold
        assert flight.queue_wait_s is not None
        assert flight.manifest_id is not None
        assert flight.plan and flight.plan["strategy"]
        assert flight.sql.startswith("SELECT id, dist FROM t")
        # Flight records ride the metrics export for scraping.
        exported = db.export_metrics().as_dict()["slow_queries"]
        assert exported and exported[-1]["manifest_id"] == flight.manifest_id
