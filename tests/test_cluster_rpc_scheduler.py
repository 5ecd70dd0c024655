"""Tests for the RPC fabric and segment scheduler."""

import pytest

from repro.cluster.rpc import RpcFabric
from repro.cluster.scheduler import SegmentScheduler
from repro.errors import WorkerUnavailableError
from repro.observe.trace import Tracer


@pytest.fixture
def fabric(clock, cost, metrics):
    return RpcFabric(clock, cost, metrics, Tracer(clock))


class TestRpc:
    def test_call_roundtrip(self, fabric):
        fabric.endpoint("w1").register("echo", lambda x: x * 2)
        assert fabric.call("w1", "echo", 10, 10, 21) == 42

    def test_call_charges_clock(self, fabric, clock):
        fabric.endpoint("w1").register("noop", lambda: None)
        before = clock.now
        fabric.call("w1", "noop", 100, 100)
        assert clock.now > before

    def test_unknown_target(self, fabric):
        with pytest.raises(WorkerUnavailableError):
            fabric.call("ghost", "echo", 1, 1)

    def test_unreachable_target(self, fabric):
        fabric.endpoint("w1").register("echo", lambda x: x)
        fabric.set_reachable("w1", False)
        with pytest.raises(WorkerUnavailableError):
            fabric.call("w1", "echo", 1, 1, 5)
        fabric.set_reachable("w1", True)
        assert fabric.call("w1", "echo", 1, 1, 5) == 5

    def test_unknown_method(self, fabric):
        fabric.endpoint("w1")
        with pytest.raises(WorkerUnavailableError):
            fabric.call("w1", "nothing", 1, 1)

    def test_remove_endpoint(self, fabric):
        fabric.endpoint("w1").register("echo", lambda x: x)
        fabric.remove("w1")
        with pytest.raises(WorkerUnavailableError):
            fabric.call("w1", "echo", 1, 1, 5)

    def test_metrics_counters(self, fabric, metrics):
        fabric.endpoint("w1").register("echo", lambda x: x)
        fabric.call("w1", "echo", 1, 1, 5)
        assert metrics.count("rpc.calls") == 1
        with pytest.raises(WorkerUnavailableError):
            fabric.call("ghost", "echo", 1, 1)
        assert metrics.count("rpc.failures") == 1


class TestScheduler:
    def segment_ids(self, n=60):
        return [f"t/seg-{i}" for i in range(n)]

    def test_assignment_covers_all_segments(self):
        scheduler = SegmentScheduler()
        for w in ("a", "b", "c"):
            scheduler.add_worker(w)
        assignment = scheduler.assign(self.segment_ids())
        assert set(assignment) == set(self.segment_ids())
        assert set(assignment.values()) <= {"a", "b", "c"}

    def test_group_by_worker_inverts(self):
        scheduler = SegmentScheduler()
        scheduler.add_worker("a")
        scheduler.add_worker("b")
        assignment = scheduler.assign(self.segment_ids(10))
        grouped = scheduler.group_by_worker(assignment)
        flattened = [s for segs in grouped.values() for s in segs]
        assert sorted(flattened) == sorted(self.segment_ids(10))

    def test_previous_owner_tracked_on_scale(self):
        scheduler = SegmentScheduler()
        for w in ("a", "b"):
            scheduler.add_worker(w)
        first = scheduler.assign(self.segment_ids())
        scheduler.add_worker("c")
        second = scheduler.assign(self.segment_ids())
        moved = [s for s in first if first[s] != second[s]]
        assert moved, "scaling should move some segments"
        for segment in moved:
            assert scheduler.previous_owner(segment) == first[segment]
            assert scheduler.current_owner(segment) == second[segment]

    def test_previous_owner_none_initially(self):
        scheduler = SegmentScheduler()
        scheduler.add_worker("a")
        scheduler.assign(["s1"])
        assert scheduler.previous_owner("s1") is None

    def test_moved_fraction_zero_without_change(self):
        scheduler = SegmentScheduler()
        scheduler.add_worker("a")
        scheduler.add_worker("b")
        ids = self.segment_ids(40)
        scheduler.assign(ids)
        assert scheduler.moved_fraction(ids) == 0.0

    def test_moved_fraction_small_after_scale(self):
        scheduler = SegmentScheduler()
        for i in range(5):
            scheduler.add_worker(f"w{i}")
        ids = self.segment_ids(300)
        scheduler.assign(ids)
        scheduler.add_worker("w5")
        assert 0.0 < scheduler.moved_fraction(ids) < 0.4
