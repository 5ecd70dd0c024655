"""Focused tests for the fault-injection schedule."""

import pytest

from repro.cluster.faults import FaultSchedule
from repro.cluster.warehouse import VirtualWarehouse
from repro.observe.trace import Tracer
from repro.storage.objectstore import ObjectStore


@pytest.fixture
def warehouse(clock, cost, metrics):
    store = ObjectStore(clock, cost, metrics)
    vw = VirtualWarehouse("vw", clock, cost, store, Tracer(clock), metrics=metrics)
    for _ in range(3):
        vw.add_worker()
    return vw


class TestScheduleOrdering:
    def test_events_fire_in_time_order(self, warehouse, clock):
        schedule = FaultSchedule(warehouse)
        w0, w1 = sorted(warehouse.workers)[:2]
        # Inserted out of order; must fire in time order.
        schedule.fail_at(2.0, w1)
        schedule.fail_at(1.0, w0)
        clock.advance(3.0)
        fired = schedule.tick()
        assert [(t, k, w) for t, k, w in fired] == [
            (1.0, "fail", w0), (2.0, "fail", w1),
        ]
        assert warehouse.worker_count == 1

    def test_future_events_do_not_fire(self, warehouse, clock):
        schedule = FaultSchedule(warehouse)
        schedule.fail_at(10.0, sorted(warehouse.workers)[0])
        clock.advance(1.0)
        assert schedule.tick() == []
        assert schedule.pending == 1
        assert warehouse.worker_count == 3

    def test_fired_history_accumulates(self, warehouse, clock):
        schedule = FaultSchedule(warehouse)
        victim = sorted(warehouse.workers)[0]
        schedule.fail_at(0.5, victim).recover_at(1.0, victim)
        clock.advance(0.6)
        schedule.tick()
        clock.advance(0.6)
        schedule.tick()
        assert [k for _, k, _ in schedule.fired] == ["fail", "recover"]
        assert schedule.pending == 0


class TestRecoverySemantics:
    def test_recovered_worker_is_reachable_and_cold(self, warehouse, clock):
        schedule = FaultSchedule(warehouse)
        victim = sorted(warehouse.workers)[0]
        schedule.fail_at(0.1, victim).recover_at(0.2, victim)
        clock.advance(0.3)
        schedule.tick()
        assert victim in warehouse.workers
        assert warehouse.workers[victim].alive
        # Crash-recovered workers come back with empty caches.
        assert not warehouse.workers[victim]._pending_loads

    def test_failure_removes_from_ring(self, warehouse, clock):
        schedule = FaultSchedule(warehouse)
        victim = sorted(warehouse.workers)[0]
        schedule.fail_at(0.1, victim)
        clock.advance(0.2)
        schedule.tick()
        assert victim not in warehouse.scheduler.worker_ids
