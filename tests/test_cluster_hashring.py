"""Tests for multi-probe consistent hashing, with hypothesis invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.hashring import MultiProbeHashRing
from repro.errors import NoWorkersError


def keys(n=200):
    return [f"table/seg-{i:05d}" for i in range(n)]


class TestMembership:
    def test_add_remove(self):
        ring = MultiProbeHashRing()
        ring.add_worker("w1")
        ring.add_worker("w2")
        assert ring.worker_ids == ["w1", "w2"]
        assert ring.remove_worker("w1")
        assert not ring.remove_worker("w1")
        assert ring.worker_ids == ["w2"]

    def test_add_idempotent(self):
        ring = MultiProbeHashRing()
        ring.add_worker("w1")
        ring.add_worker("w1")
        assert len(ring) == 1

    def test_empty_ring_raises(self):
        with pytest.raises(NoWorkersError):
            MultiProbeHashRing().assign("seg")

    def test_bad_probe_count(self):
        with pytest.raises(ValueError):
            MultiProbeHashRing(probes=0)


class TestAssignment:
    def test_deterministic(self):
        ring = MultiProbeHashRing()
        for w in ("a", "b", "c"):
            ring.add_worker(w)
        assert ring.assign("seg-1") == ring.assign("seg-1")

    def test_single_worker_gets_everything(self):
        ring = MultiProbeHashRing()
        ring.add_worker("only")
        assert all(ring.assign(k) == "only" for k in keys(20))

    def test_balance_reasonable(self):
        """Multi-probe's selling point: near-uniform load with one point
        per worker."""
        ring = MultiProbeHashRing()
        workers = [f"w{i}" for i in range(8)]
        for w in workers:
            ring.add_worker(w)
        counts = ring.load_distribution(keys(800))
        expected = 800 / 8
        assert max(counts.values()) < 2.2 * expected
        assert min(counts.values()) > 0.3 * expected

    def test_scale_up_moves_about_one_over_n(self):
        """The consistent-hashing property the paper leans on: adding a
        worker to n moves ≈ 1/(n+1) of keys."""
        ring = MultiProbeHashRing()
        for i in range(5):
            ring.add_worker(f"w{i}")
        before = ring.assignment(keys(600))
        ring.add_worker("w5")
        after = ring.assignment(keys(600))
        moved = sum(1 for k in before if before[k] != after[k])
        fraction = moved / 600
        assert 0.05 < fraction < 0.35  # ideal 1/6 ≈ 0.167

    def test_moved_keys_go_to_new_worker(self):
        ring = MultiProbeHashRing()
        for i in range(4):
            ring.add_worker(f"w{i}")
        before = ring.assignment(keys(400))
        ring.add_worker("new")
        after = ring.assignment(keys(400))
        for key in before:
            if before[key] != after[key]:
                assert after[key] == "new"

    def test_remove_only_reassigns_victims_keys(self):
        ring = MultiProbeHashRing()
        for i in range(5):
            ring.add_worker(f"w{i}")
        before = ring.assignment(keys(400))
        ring.remove_worker("w2")
        after = ring.assignment(keys(400))
        for key in before:
            if before[key] != "w2":
                assert after[key] == before[key]


class TestProperties:
    @given(
        n_workers=st.integers(min_value=1, max_value=12),
        n_keys=st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_key_assigned_to_member(self, n_workers, n_keys):
        ring = MultiProbeHashRing()
        workers = [f"w{i}" for i in range(n_workers)]
        for w in workers:
            ring.add_worker(w)
        for key in keys(n_keys):
            assert ring.assign(key) in workers

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_add_then_remove_restores_assignment(self, n_workers):
        ring = MultiProbeHashRing()
        for i in range(n_workers):
            ring.add_worker(f"w{i}")
        before = ring.assignment(keys(100))
        ring.add_worker("transient")
        ring.remove_worker("transient")
        after = ring.assignment(keys(100))
        assert before == after

    @given(
        n_workers=st.integers(min_value=1, max_value=10),
        skipped=st.sets(st.integers(min_value=0, max_value=11)),
    )
    @settings(max_examples=25, deadline=None)
    def test_skip_routes_as_if_evicted(self, n_workers, skipped):
        ring, evicted = MultiProbeHashRing(), MultiProbeHashRing()
        skip = {f"w{i}" for i in skipped}
        for i in range(n_workers):
            ring.add_worker(f"w{i}")
            if f"w{i}" not in skip:
                evicted.add_worker(f"w{i}")
        if not len(evicted):
            with pytest.raises(NoWorkersError):
                ring.assign("seg", skip)
            return
        for key in keys(60):
            assert ring.assign(key, skip) == evicted.assign(key)


class TestProbeBalance:
    """More probes flatten the load: the multi-probe trade-off."""

    @staticmethod
    def _spread(probes, n_workers=8, n_keys=800):
        ring = MultiProbeHashRing(probes=probes)
        for i in range(n_workers):
            ring.add_worker(f"w{i}")
        counts = ring.load_distribution(keys(n_keys))
        expected = n_keys / n_workers
        return max(counts.values()) / expected

    def test_more_probes_tighter_balance(self):
        # One probe degenerates to classic single-point consistent
        # hashing (arc lengths vary wildly); 21 probes should cut the
        # worst worker's overload substantially.
        assert self._spread(21) < self._spread(1)

    def test_default_probe_peak_bounded(self):
        assert self._spread(21) < 2.0

    @pytest.mark.parametrize("probes", [1, 5, 21, 64])
    def test_every_probe_count_covers_all_workers(self, probes):
        ring = MultiProbeHashRing(probes=probes)
        for i in range(6):
            ring.add_worker(f"w{i}")
        counts = ring.load_distribution(keys(1200))
        assert set(counts) == {f"w{i}" for i in range(6)}
        assert all(v > 0 for v in counts.values())


class TestMinimalMovement:
    def test_remove_moves_about_one_over_n(self):
        ring = MultiProbeHashRing()
        for i in range(6):
            ring.add_worker(f"w{i}")
        before = ring.assignment(keys(600))
        ring.remove_worker("w3")
        after = ring.assignment(keys(600))
        moved = sum(1 for k in before if before[k] != after[k])
        # Exactly the victim's keys move, nothing else: ideal 1/6.
        assert moved == sum(1 for k in before if before[k] == "w3")
        assert 0.03 < moved / 600 < 0.4

    def test_sequential_growth_cumulative_movement(self):
        """Growing 2 → 8 one worker at a time never reshuffles keys that
        both sides of a step still host."""
        ring = MultiProbeHashRing()
        ring.add_worker("w0")
        ring.add_worker("w1")
        snapshot = ring.assignment(keys(400))
        for i in range(2, 8):
            ring.add_worker(f"w{i}")
            current = ring.assignment(keys(400))
            for key, owner in snapshot.items():
                if current[key] != owner:
                    assert current[key] == f"w{i}"
            snapshot = current


class TestSeededChurn:
    """Determinism under membership churn: the ring is a pure function
    of its member set, regardless of arrival order or history."""

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=9)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_history_independent(self, ops):
        churned = MultiProbeHashRing()
        members = set()
        for add, idx in ops:
            name = f"w{idx}"
            if add:
                churned.add_worker(name)
                members.add(name)
            else:
                churned.remove_worker(name)
                members.discard(name)
        fresh = MultiProbeHashRing()
        for name in sorted(members):
            fresh.add_worker(name)
        probe_keys = keys(60)
        if not members:
            with pytest.raises(NoWorkersError):
                churned.assign("seg")
            return
        assert churned.assignment(probe_keys) == fresh.assignment(probe_keys)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_seeded_replay_is_identical(self, seed):
        import random

        def replay():
            rng = random.Random(seed)
            ring = MultiProbeHashRing()
            members = set()
            for _ in range(40):
                name = f"w{rng.randrange(12)}"
                if name in members and rng.random() < 0.4:
                    ring.remove_worker(name)
                    members.discard(name)
                else:
                    ring.add_worker(name)
                    members.add(name)
            if not members:
                ring.add_worker("w0")
            return ring.assignment(keys(80))

        assert replay() == replay()
