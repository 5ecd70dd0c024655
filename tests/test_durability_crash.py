"""Crash-equivalence property tests.

Harness: run a scripted workload against an engine whose crash registry
is armed, let :class:`InjectedCrash` kill it at the armed point, recover
a fresh engine from the surviving object store, and compare it against a
*twin* that executed exactly the durable prefix of the workload and
never crashed.

The durable-outcome oracle (``DURABLE_POINTS``): every operation before
the crashed one is acknowledged and must survive; the crashed operation
itself survives iff the fired point sits after its group-commit barrier.
This makes the twin deterministic for any crash position, so recovered
state can be compared byte-for-byte — acknowledged writes are never
lost, unacknowledged ones never half-applied, committed deletes never
resurrected.

``DURABILITY_FUZZ=1`` widens the randomized sweep from 12 to 120
histories (the CI durability-fuzz job); ``DURABILITY_FUZZ_SEED``
overrides the seed, which every failure message includes.
"""

import os

import numpy as np
import pytest

from repro.core.database import BlendHouse
from repro.durability.crashpoints import (
    CRASH_POINTS,
    DURABLE_POINTS,
    CrashPointRegistry,
    InjectedCrash,
)
from repro.durability.manager import DurabilityConfig
from repro.durability.wal import encode_frame
from tests.helpers import vector_sql

DIM = 8
FUZZ = os.environ.get("DURABILITY_FUZZ", "") not in ("", "0")
FUZZ_HISTORIES = 120 if FUZZ else 12
FUZZ_SEED = int(os.environ.get("DURABILITY_FUZZ_SEED", "20260806"))


# ----------------------------------------------------------------------
# Scripted workload (deterministic: all data pre-generated)
# ----------------------------------------------------------------------
def _batch(rng, start, count, label):
    return [
        {"id": start + i, "label": label,
         "embedding": rng.normal(size=DIM).astype(np.float32)}
        for i in range(count)
    ]


def make_workload():
    """(ops, query) — ops are (name, fn(db)) pairs with baked-in data."""
    rng = np.random.default_rng(99)
    batch_a = _batch(rng, 0, 30, "a")
    batch_b = _batch(rng, 30, 30, "b")
    batch_c = _batch(rng, 60, 30, "c")
    batch_d = _batch(rng, 90, 30, "z")
    query = rng.normal(size=DIM).astype(np.float32)
    create = (
        "CREATE TABLE docs (id UInt64, label String, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
    )
    ops = [
        ("create", lambda db: db.execute(create)),
        ("insert_a", lambda db: db.insert_rows("docs", batch_a)),
        ("insert_b", lambda db: db.insert_rows("docs", batch_b)),
        ("delete", lambda db: db.execute("DELETE FROM docs WHERE id < 10")),
        ("checkpoint", lambda db: db.execute("CHECKPOINT")),
        ("update", lambda db: db.execute(
            "UPDATE docs SET label = 'z' WHERE id = 42")),
        ("insert_c", lambda db: db.insert_rows("docs", batch_c)),
        ("compact", lambda db: db.compact("docs")),
        ("delete_2", lambda db: db.execute(
            "DELETE FROM docs WHERE id BETWEEN 35 AND 45")),
        # The re-created table's segment ids are the dropped one's.
        ("drop", lambda db: db.execute("DROP TABLE docs")),
        ("recreate", lambda db: db.execute(create)),
        ("insert_d", lambda db: db.insert_rows("docs", batch_d)),
    ]
    return ops, query


def run_until_crash(ops, registry):
    """Apply ops to an armed engine; returns (db, crashed_index or None)."""
    db = BlendHouse(durability=DurabilityConfig(crashpoints=registry))
    for index, (_name, op) in enumerate(ops):
        try:
            op(db)
        except InjectedCrash:
            return db, index
    return db, None


def build_twin(ops, durable_count):
    """A never-crashed engine that ran exactly the durable prefix."""
    twin = BlendHouse()
    for _name, op in ops[:durable_count]:
        op(twin)
    return twin


def assert_equivalent(recovered, twin, query, context):
    names_r = sorted(e.schema.name for e in recovered.catalog.entries())
    names_t = sorted(e.schema.name for e in twin.catalog.entries())
    assert names_r == names_t, f"{context}: tables {names_r} != {names_t}"
    for name in names_t:
        dr, dt = recovered.describe(name), twin.describe(name)
        for field in ("columns", "vector_dim", "segments", "rows_alive",
                      "rows_deleted", "manifest_id"):
            assert dr[field] == dt[field], (
                f"{context}: describe({name}).{field} "
                f"{dr[field]!r} != {dt[field]!r}"
            )
        for sql in (
            f"SELECT id, label, dist FROM {name} ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 100",
            f"SELECT id, dist FROM {name} WHERE label = 'z' ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 100",
        ):
            rows_r = recovered.execute(sql).rows
            rows_t = twin.execute(sql).rows
            assert rows_r == rows_t, (
                f"{context}: query rows diverged\n{rows_r}\n{rows_t}"
            )


def crash_and_verify(ops, query, arm, context):
    """Arm, run, recover, compare against the oracle twin."""
    registry = CrashPointRegistry()
    arm(registry)
    crashed, index = run_until_crash(ops, registry)
    if index is None:
        durable_count = len(ops)
        assert registry.fired is None
    else:
        fired = registry.fired
        assert fired is not None
        durable_count = index + 1 if fired in DURABLE_POINTS else index
        context = f"{context} (crashed in op {ops[index][0]!r} at {fired})"
    registry.reset()
    recovered = BlendHouse.recover(crashed.store)
    twin = build_twin(ops, durable_count)
    assert_equivalent(recovered, twin, query, context)
    return index


# ----------------------------------------------------------------------
# Deterministic coverage of every named crash point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("at_hit", [1, 2])
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_named_crash_point_equivalence(point, at_hit):
    ops, query = make_workload()
    crash_and_verify(
        ops, query,
        arm=lambda registry: registry.arm(point, at_hit=at_hit),
        context=f"point={point} at_hit={at_hit}",
    )


def test_every_named_point_actually_fires():
    """The workload passes through all named points (coverage guard)."""
    ops, query = make_workload()
    for point in CRASH_POINTS:
        registry = CrashPointRegistry()
        registry.arm(point, at_hit=1)
        _, index = run_until_crash(ops, registry)
        assert index is not None, f"{point} never fired"
        assert registry.fired == point


# ----------------------------------------------------------------------
# Randomized fuzz: kill the n-th durability event for sampled n
# ----------------------------------------------------------------------
def test_fuzzed_crash_histories():
    ops, query = make_workload()
    counter = CrashPointRegistry()
    counter.counting(True)
    db, index = run_until_crash(ops, counter)
    assert index is None
    total_events = counter.hits
    assert total_events > len(ops)

    rng = np.random.default_rng(FUZZ_SEED)
    events = rng.integers(1, total_events + 1, size=FUZZ_HISTORIES)
    for history, n in enumerate(events):
        crash_and_verify(
            ops, query,
            arm=lambda registry, _n=int(n): registry.arm_countdown(_n),
            context=(
                f"fuzz history {history}/{FUZZ_HISTORIES} "
                f"(seed={FUZZ_SEED}, countdown={int(n)})"
            ),
        )


# ----------------------------------------------------------------------
# Torn-tail corruption of the physical log
# ----------------------------------------------------------------------
def test_torn_final_wal_record_is_truncated_not_fatal():
    ops, query = make_workload()
    db, _ = run_until_crash(ops, CrashPointRegistry())
    keys = db.store.list_keys("wal/")
    assert keys
    last = keys[-1]
    # A torn append: half a frame of garbage lands after the final group.
    torn = encode_frame(10_000, "commit", {"table": "docs"})[:-7]
    db.store.put(last, db.store.get(last) + torn)
    recovered = BlendHouse.recover(db.store)
    assert not recovered.last_recovery.torn_records_dropped  # never parsed
    twin = build_twin(ops, len(ops))
    assert_equivalent(recovered, twin, query, "torn tail")


def test_trailing_garbage_chunk_is_dropped():
    ops, query = make_workload()
    db, _ = run_until_crash(ops, CrashPointRegistry())
    # A chunk that began uploading but carries no complete group commit.
    seq = db._durability.wal._next_chunk
    db.store.put(
        db._durability.wal.chunk_key(seq),
        encode_frame(10_001, "commit", {"table": "docs"})[:-2],
    )
    recovered = BlendHouse.recover(db.store)
    twin = build_twin(ops, len(ops))
    assert_equivalent(recovered, twin, query, "garbage tail chunk")
