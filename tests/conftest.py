"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.database import BlendHouse
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.objectstore import ObjectStore
from tests.helpers import vector_sql  # noqa: F401 - re-exported for tests


@pytest.fixture
def clock() -> SimulatedClock:
    return SimulatedClock()


@pytest.fixture
def cost() -> DeviceCostModel:
    return DeviceCostModel()


@pytest.fixture
def metrics() -> MetricRegistry:
    return MetricRegistry()


@pytest.fixture
def store(clock, cost, metrics) -> ObjectStore:
    return ObjectStore(clock, cost, metrics)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def small_vectors(n: int = 300, dim: int = 16, seed: int = 0) -> np.ndarray:
    """Deterministic small vector set shared across tests."""
    generator = np.random.default_rng(seed)
    return generator.normal(size=(n, dim)).astype(np.float32)


@pytest.fixture
def vectors() -> np.ndarray:
    return small_vectors()



@pytest.fixture(autouse=True)
def _mvcc_leak_guard():
    """With MVCC_LEAK_CHECK=1, fail any test that leaks snapshot pins.

    A pin that outlives its query blocks segment retirement forever; the
    concurrency-stress CI job runs the suite under this guard.
    """
    if os.environ.get("MVCC_LEAK_CHECK") != "1":
        yield
        return
    from repro.storage.manifest import live_pinned_snapshots

    before = live_pinned_snapshots()
    yield
    leaked = live_pinned_snapshots() - before
    assert leaked <= 0, f"{leaked} pinned snapshot(s) leaked by this test"


def pytest_sessionfinish(session, exitstatus):
    """Process-exit leak gate for the concurrency-stress CI job."""
    if os.environ.get("MVCC_LEAK_CHECK") == "1":
        from repro.storage.manifest import live_pinned_snapshots

        leaked = live_pinned_snapshots()
        if leaked:
            print(
                f"\nMVCC leak check: {leaked} pinned snapshot(s) still live "
                "at process exit"
            )
            session.exitstatus = 1


@pytest.fixture
def docs_db(rng) -> BlendHouse:
    """An engine with a small populated table (HNSW index)."""
    db = BlendHouse()
    db.execute(
        "CREATE TABLE docs (id UInt64, label String, views UInt64, "
        "embedding Array(Float32), INDEX ann embedding TYPE HNSW('DIM=16'))"
    )
    rows = [
        {
            "id": i,
            "label": ["news", "sports", "tech"][i % 3],
            "views": int(rng.integers(0, 1000)),
            "embedding": rng.normal(size=16).astype(np.float32),
        }
        for i in range(600)
    ]
    db.insert_rows("docs", rows)
    db._docs_rows = rows  # stashed for assertions
    return db
