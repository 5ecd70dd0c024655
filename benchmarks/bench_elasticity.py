"""Elastic fleet — cold-cache masking through a mid-workload scale-out.

A 200k+-row table is streamed into a two-warehouse fleet, a steady
interactive workload runs across many tenants, and one warehouse is
added *mid-workload*.  Two join protocols are measured through the
scale event (interactive p99, per-window cache hit-rate, result bytes):

* ``masked``   — the background preloader warms the joining warehouse
  from fleet-wide access stats, reading each index from the object
  store; the router admits it only after the warm-up's simulated cost
  has elapsed.  The paper's claim: the scale event is invisible to
  foreground p99.
* ``unmasked`` — the joining warehouse enters the ring cold.  Index
  fetches are backgrounded (they never block a query), so every tenant
  rerouted to the cold member is served by exact brute-force scans —
  all rows at scalar flop rates instead of an HNSW walk over ``ef``
  candidates at vectorized rates.  That compute gap is the cliff.

Gates (also enforced by CI at ``BENCH_SMOKE=1``): masked keeps
during-scale p99 within 25% of steady state; unmasked degrades ≥ 2×;
results are byte-identical per tenant before/during/after in every
variant (``EF_SEARCH`` is sized so per-segment HNSW recall is exactly
1.0, making warm graph walks and cold brute scans return the same
bytes).  Writes ``benchmarks/results/elasticity.json``.
"""

import pytest

from benchmarks.common import (
    BENCH_COST,
    fmt_table,
    smoke_scaled,
    write_results,
)
from repro.elastic import FleetBlendHouse, FleetConfig
from repro.simulate.metrics import percentile
from repro.workloads.datasets import make_cohere_like

ROWS = smoke_scaled(200_000, 12_000)
DIM = 64
SEGMENT_ROWS = smoke_scaled(4_000, 1_000)
INGEST_CHUNK = smoke_scaled(10_000, 3_000)
TENANTS = 12
ROUNDS_PER_WINDOW = 3  # each tenant queries this many times per window
# Beam width sized so the merged top-10 is exact on this dataset
# (verified against brute force per segment): byte-identity is a gate,
# so the approximate index must be tuned until the global result set
# matches the exact kernel bit for bit.
EF_SEARCH = smoke_scaled(600, 300)

MASKED_P99_HEADROOM = 1.25  # within 25% of steady state
UNMASKED_P99_FLOOR = 2.0  # the cliff the masking removes


def vector_sql(vector):
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def _build_fleet(dataset):
    db = FleetBlendHouse(
        cost_model=BENCH_COST,
        fleet_config=FleetConfig(warehouses=2, workers_per_warehouse=2),
    )
    db.execute(
        f"CREATE TABLE bench (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={DIM}', 'M=8, ef_construction=64'))"
    )
    db.execute(f"SET ef_search = {EF_SEARCH}")
    db.db.table("bench").writer.config.max_segment_rows = SEGMENT_ROWS
    # Streamed ingest: fixed-size chunks arriving over time, the way the
    # serving tier sees continuous writes — not one bulk load.
    for lo in range(0, ROWS, INGEST_CHUNK):
        hi = min(lo + INGEST_CHUNK, ROWS)
        db.insert_columns(
            "bench",
            {
                "id": dataset.scalars["id"][lo:hi],
                "attr": dataset.scalars["attr"][lo:hi],
            },
            dataset.vectors[lo:hi],
        )
    db.preload("bench")  # both initial members start warm (steady state)
    return db


def _tenant_sqls(dataset):
    return {
        f"tenant-{i}": (
            f"SELECT id, dist FROM bench ORDER BY L2Distance(embedding, "
            f"{vector_sql(dataset.queries[i % len(dataset.queries)])}) "
            f"AS dist LIMIT 10"
        )
        for i in range(TENANTS)
    }


def _run_window(db, sqls, rounds=ROUNDS_PER_WINDOW):
    """One measurement window: every tenant queries ``rounds`` times.

    Returns (p99 latency, window cache hit-rate, per-tenant result ids).
    """
    stats = db.fleet.access_stats()
    hits0, misses0 = stats.total_hits, stats.total_misses
    latencies = []
    results = {}
    for _ in range(rounds):
        for tenant, sql in sqls.items():
            start = db.clock.now
            result = db.execute(sql, tenant=tenant, lane="interactive")
            latencies.append(db.clock.now - start)
            results[tenant] = tuple(row[0] for row in result.rows)
    stats = db.fleet.access_stats()
    hits, misses = stats.total_hits - hits0, stats.total_misses - misses0
    hit_rate = hits / (hits + misses) if hits + misses else 1.0
    return percentile(sorted(latencies), 99.0), hit_rate, results


def _run_variant(dataset, masked):
    db = _build_fleet(dataset)
    sqls = _tenant_sqls(dataset)
    _run_window(db, sqls)  # warm-up: plans cached, caches settled
    steady_p99, steady_hit, steady_results = _run_window(db, sqls)

    scale_at = db.clock.now
    joined = db.scale_out(masked=masked)
    warm_cost_s = max(0.0, db.fleet.pending.get(joined, scale_at) - scale_at)
    during_p99, during_hit, during_results = _run_window(db, sqls)

    ready_at = db.fleet.pending.get(joined)
    if ready_at is not None:
        # The workload went quiet before the warm-up finished; idle out
        # the remainder on the simulated clock.
        db.clock.advance(max(0.0, ready_at - db.clock.now) + 1e-9)
        db.fleet.poll()
    after_p99, after_hit, after_results = _run_window(db, sqls)

    assert joined in db.fleet.router
    identical = steady_results == during_results == after_results
    return {
        "warm_cost_s": warm_cost_s,
        "joined_served_queries": db.metrics.count(f"fleet.served_by.{joined}"),
        "steady_p99_s": steady_p99,
        "during_p99_s": during_p99,
        "after_p99_s": after_p99,
        "during_over_steady": during_p99 / steady_p99,
        "after_over_steady": after_p99 / steady_p99,
        "hit_rate": {
            "steady": steady_hit, "during": during_hit, "after": after_hit,
        },
        "results_identical": identical,
        "_results": steady_results,
    }


@pytest.fixture(scope="module")
def variants():
    dataset = make_cohere_like(n=ROWS, dim=DIM, n_queries=TENANTS, seed=33)
    variants = {
        "masked": _run_variant(dataset, True),
        "unmasked": _run_variant(dataset, False),
    }
    # Same bytes regardless of join protocol.
    reference = variants["masked"].pop("_results")
    for name, variant in list(variants.items()):
        rows = variant.pop("_results", reference)
        assert rows == reference, f"{name} returned different rows"
    metrics = {
        "rows": (ROWS, "count"),
        "queries_per_window": (TENANTS * ROUNDS_PER_WINDOW, "count"),
    }
    for name, v in variants.items():
        for key in ("warm_cost_s", "steady_p99_s", "during_p99_s", "after_p99_s"):
            metrics[f"{name}/{key}"] = (v[key], "s")
        for key in ("during_over_steady", "after_over_steady"):
            metrics[f"{name}/{key}"] = (v[key], "ratio")
        for window, rate in v["hit_rate"].items():
            metrics[f"{name}/hit_rate/{window}"] = (rate, "ratio")
        metrics[f"{name}/joined_served_queries"] = (v["joined_served_queries"], "count")
    write_results("elasticity", metrics)
    return variants


def test_elasticity_scale_event(variants):
    print(fmt_table(
        "Elastic fleet: interactive p99 through a mid-workload scale-out",
        ["variant", "steady p99 (s)", "during p99 (s)", "after p99 (s)",
         "during/steady", "hit rate during"],
        [
            [
                name,
                v["steady_p99_s"],
                v["during_p99_s"],
                v["after_p99_s"],
                v["during_over_steady"],
                v["hit_rate"]["during"],
            ]
            for name, v in variants.items()
        ],
    ))

    masked, unmasked = variants["masked"], variants["unmasked"]
    # Byte-identical service through every scale event.
    assert all(v["results_identical"] for v in variants.values())
    # The masked join is invisible to foreground p99...
    assert masked["during_over_steady"] <= MASKED_P99_HEADROOM, masked
    # ...while the cold join is a cliff the clients feel.
    assert unmasked["during_over_steady"] >= UNMASKED_P99_FLOOR, unmasked
    # The cliff is cold caches, not capacity: once warmed through the
    # query path, the unmasked member's window recovers.
    assert unmasked["after_over_steady"] <= MASKED_P99_HEADROOM * 1.2
    # The cold window tanks the fleet hit-rate; the masked one doesn't.
    assert unmasked["hit_rate"]["during"] < masked["hit_rate"]["during"]
    # The joining warehouse really serves traffic after admission.
    assert masked["joined_served_queries"] > 0
