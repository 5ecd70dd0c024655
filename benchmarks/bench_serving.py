"""Serving-tier tail latency under closed- and open-loop load.

Drives the asyncio serving front-end against the production image-search
trace (``make_production_like``) on a virtual-time event loop, the
"millions of users" axis of the paper's cloud-native claims:

* **Closed loop** — a fixed worker population issues queries back to
  back; measures pipeline latency at a known concurrency.
* **Open loop** — Poisson arrivals at a configured rate, independent of
  completions; queues build toward saturation and the p99/p999 tail
  plus admission rejections tell the real serving story.

Every latency is virtual/simulated seconds on seeded RNGs, so the
numbers are bit-identical run to run and CI can gate p99 tightly
(``check_regression.py serving_closed serving_open`` against
``baselines/serving_{closed,open}.json``).

Artifacts: ``benchmarks/results/serving_closed.json`` and
``serving_open.json``.

CLI flags (also runnable standalone, without pytest)::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--mode closed|open|both]   # default both
        [--queries N]               # total queries per mode
        [--concurrency N]           # closed-loop worker population
        [--rate QPS]                # open-loop Poisson arrival rate
        [--batch-fraction F]        # share of queries on the batch lane
        [--tenants N]               # distinct tenants in the mix
        [--max-inflight N]          # admission: execution slots
        [--queue-depth N]           # admission: wait-queue bound
        [--timeout S]               # per-query deadline (open loop)
        [--seed N]

``BENCH_SMOKE=1`` shrinks the dataset and query counts for CI;
``SERVING_SLOWDOWN=<mult>`` derates every stage (fault injection for
the regression gate — 2 must make the p99 check fail).
"""

import argparse
import os
import sys

import pytest

if __package__ in (None, ""):  # standalone CLI: python benchmarks/bench_serving.py
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    BENCH_COST,
    fmt_table,
    smoke_scaled,
    write_results,
)
from repro.core.database import BlendHouse
from repro.observe.slo import SLObjective, SLOMonitor
from repro.serving import (
    ServingConfig,
    ServingFrontend,
    run_closed_loop,
    run_open_loop,
    run_virtual,
)
from repro.workloads.datasets import make_production_like

N = smoke_scaled(8000, 1500)
DIM = smoke_scaled(48, 16)
N_QUERIES = smoke_scaled(100, 20)
SEGMENT_ROWS = smoke_scaled(1500, 500)
TOTAL_QUERIES = smoke_scaled(400, 120)
# More workers than slots + queue (8 + 16), so closed-loop admission
# control visibly engages.
CLOSED_CONCURRENCY = smoke_scaled(64, 32)
# Past capacity on purpose: the open loop must exhibit queueing and
# admission rejections, not just echo the closed-loop numbers (closed
# capacity measures ~23k qps full scale / ~13k smoke).
OPEN_RATE_QPS = smoke_scaled(28000.0, 16000.0)
MAX_INFLIGHT = 8
QUEUE_DEPTH = 16
BATCH_FRACTION = 0.25
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
SLOWDOWN = float(os.environ.get("SERVING_SLOWDOWN", "1") or "1")

# SLO calibration, per scale: just above the healthy interactive p95, so
# at the healthy baseline only a few percent of queries breach the
# threshold — while any SERVING_SLOWDOWN >= 2 pushes the bulk of the
# distribution (p50 and up) over it, tripping the fast-burn alert
# deterministically.  Full scale: p50 ~0.50 virtual ms, p95 ~0.78 ms
# (0.8 ms: fast burn 0.23 healthy, 2.74 at 2x).  Smoke scale
# (baselines/serving_closed.json): p50 ~0.16 ms, p95 ~0.28 ms.
SLO_LATENCY_THRESHOLD_S = smoke_scaled(8e-4, 3e-4)
SLO_TARGET = 0.8            # 20% error budget on the latency objective
SLO_ALERT_BURN_RATE = 1.5   # alert when >30% of queries breach
SLO_REJECTION_TARGET = 0.7  # admission pressure is expected; alert on worse


def attach_slo(db, frontend):
    """A monitor watching the interactive lane plus rejection rate."""
    slo = SLOMonitor(db.clock, metrics=db.metrics)
    slo.add_objective(SLObjective(
        name="interactive_latency", kind="latency", lane="interactive",
        target=SLO_TARGET, threshold_s=SLO_LATENCY_THRESHOLD_S,
        alert_burn_rate=SLO_ALERT_BURN_RATE,
    ))
    slo.add_objective(SLObjective(
        name="rejection_rate", kind="rejection",
        target=SLO_REJECTION_TARGET, alert_burn_rate=4.0,
    ))
    frontend.slo = slo
    return slo


def vector_sql(vector):
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def build_workload(seed=3):
    """(engine, sqls): the production trace loaded and its query mix.

    The mix alternates pure top-k searches with multi-predicate hybrid
    queries (category + score filter), the trace shape of Table VII.
    """
    dataset = make_production_like(n=N, dim=DIM, n_queries=N_QUERIES, seed=seed)
    db = BlendHouse(cost_model=BENCH_COST)
    db.execute(
        f"CREATE TABLE prod (id UInt64, category String, day Int64, "
        f"score Float64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={dataset.dim}'))"
    )
    db.table("prod").writer.config.max_segment_rows = SEGMENT_ROWS
    db.insert_columns(
        "prod",
        {name: dataset.scalars[name]
         for name in ("id", "category", "day", "score")},
        dataset.vectors,
    )
    categories = sorted(set(dataset.scalars["category"]))
    sqls = []
    for qi, query in enumerate(dataset.queries):
        if qi % 2 == 0:
            sqls.append(
                f"SELECT id, dist FROM prod ORDER BY "
                f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 10"
            )
        else:
            category = categories[qi % len(categories)]
            sqls.append(
                f"SELECT id FROM prod WHERE category = '{category}' "
                f"AND score >= 0.3 ORDER BY "
                f"L2Distance(embedding, {vector_sql(query)}) LIMIT 10"
            )
    return db, sqls


def serve(mode, queries=TOTAL_QUERIES, concurrency=CLOSED_CONCURRENCY,
          rate=OPEN_RATE_QPS, batch_fraction=BATCH_FRACTION,
          tenants=TENANTS, max_inflight=MAX_INFLIGHT,
          queue_depth=QUEUE_DEPTH, timeout_s=None, seed=11):
    """One load run on a fresh engine; returns (LoadReport, observability).

    The second element carries the SLO evaluation, the flight records
    the slow-query log captured, and the event-stream summary.
    """
    db, sqls = build_workload()
    frontend = ServingFrontend(db, ServingConfig(
        max_inflight=max_inflight,
        max_queue_depth=queue_depth,
        time_scale=SLOWDOWN,
    ))
    slo = attach_slo(db, frontend)
    # Record a flight for anything over the SLO threshold (plus the
    # tail-sampled normals the log takes by default).
    db.settings.slowlog_threshold_ms = SLO_LATENCY_THRESHOLD_S * 1e3
    if mode == "closed":
        report = run_virtual(run_closed_loop(
            frontend, sqls, concurrency=concurrency, total_queries=queries,
            batch_fraction=batch_fraction, tenants=tenants,
            timeout_s=timeout_s, seed=seed,
        ))
    else:
        report = run_virtual(run_open_loop(
            frontend, sqls, arrival_rate_qps=rate, total_queries=queries,
            batch_fraction=batch_fraction, tenants=tenants,
            timeout_s=timeout_s, seed=seed,
        ))
    pinned = db.table("prod").manager.store.pinned_count
    assert pinned == 0, f"{pinned} snapshot pins leaked by serving run"
    observability = {
        "slo": slo.as_dict(),
        "slow_queries": [rec.to_dict() for rec in db.slowlog.records()],
        "slowlog_recorded": db.slowlog.recorded,
        "events": db.events.summary(),
    }
    return report, observability


def write_report(name, report, observability):
    """Write one run's scalars as ``benchmarks/results/<name>.json``."""
    metrics = {"duration_s": (report.duration_s, "s"), "qps": (report.qps, "1/s")}
    for key in ("offered", "completed", "rejected_admission", "rejected_quota",
                "timeouts", "errors"):
        metrics[key] = (getattr(report, key), "count")
    dists = {f"latency/{lane}": dist for lane, dist in report.latency.items()}
    dists.update(queue_wait=report.queue_wait, queue_depth=report.queue_depth)
    for prefix, dist in dists.items():
        for stat, value in (dist or {}).items():
            unit = "count" if stat == "count" or prefix == "queue_depth" else "s"
            metrics[f"{prefix}/{stat}"] = (value, unit)
    for objective, status in observability["slo"].items():
        metrics[f"slo/{objective}/fast_burn"] = (status["fast_burn"], "ratio")
        metrics[f"slo/{objective}/slow_burn"] = (status["slow_burn"], "ratio")
    write_results(name, metrics)


def _latency_rows(report):
    rows = []
    for label, dist in sorted(report.latency.items()):
        rows.append([
            label, dist["count"], dist["p50"] * 1e3, dist["p99"] * 1e3,
            dist["p999"] * 1e3, dist["max"] * 1e3,
        ])
    return rows


def _print_report(title, report):
    print(fmt_table(
        title,
        ["lane", "count", "p50 (ms)", "p99 (ms)", "p999 (ms)", "max (ms)"],
        _latency_rows(report),
    ))
    print(
        f"offered {report.offered}  completed {report.completed}  "
        f"rejected_admission {report.rejected_admission}  "
        f"rejected_quota {report.rejected_quota}  "
        f"timeouts {report.timeouts}  errors {report.errors}  "
        f"qps {report.qps:.1f}"
    )


@pytest.fixture(scope="module")
def closed_report():
    return serve("closed")


@pytest.fixture(scope="module")
def open_report():
    return serve("open")


def test_serving_closed_loop(closed_report):
    report, observability = closed_report
    _print_report(
        f"Serving closed loop: {CLOSED_CONCURRENCY} workers, "
        f"{MAX_INFLIGHT} slots (virtual seconds)",
        report,
    )
    write_report("serving_closed", report, observability)

    # SLO burn-rate behaviour is deterministic on the virtual clock: the
    # healthy baseline holds the alert clear, while an injected
    # SERVING_SLOWDOWN fault (>= 2x derating) must trip the fast burn.
    latency_slo = observability["slo"]["interactive_latency"]
    if SLOWDOWN >= 2.0:
        assert latency_slo["alerting"], (
            f"SERVING_SLOWDOWN={SLOWDOWN} must trip the latency SLO: "
            f"{latency_slo}"
        )
        # The flight recorder holds full records for the offending
        # queries: span trace, chosen plan, manifest, lane, queue wait.
        slow = [
            rec for rec in observability["slow_queries"]
            if rec["reason"] == "slow"
        ]
        assert slow, "slowdown run must capture slow flight records"
        for rec in slow:
            assert rec["plan"].get("strategy")
            assert rec["manifest_id"] is not None
            assert rec["lane"] in ("interactive", "batch")
            assert rec["queue_wait_s"] is not None
    elif SLOWDOWN == 1.0:
        assert not latency_slo["alerting"], (
            f"healthy baseline must not page: {latency_slo}"
        )

    # Every offered query terminates with some reply.
    assert report.completed + report.rejected_admission + report.timeouts + \
        report.errors == report.offered
    assert report.completed > 0 and report.errors == 0
    # With 3x more workers than slots + queue, admission control engages.
    assert report.rejected_admission > 0
    overall = report.latency["overall"]
    assert overall["p50"] <= overall["p99"] <= overall["p999"]
    # Closed-loop queue wait is bounded by the worker population, so the
    # queue-depth series must never exceed the configured bound.
    assert report.queue_depth is None or report.queue_depth["max"] <= QUEUE_DEPTH


def test_serving_open_loop(open_report):
    report, observability = open_report
    _print_report(
        f"Serving open loop: {OPEN_RATE_QPS:.0f} qps Poisson arrivals, "
        f"{MAX_INFLIGHT} slots (virtual seconds)",
        report,
    )
    write_report("serving_open", report, observability)

    assert report.completed + report.rejected_admission + report.timeouts + \
        report.errors == report.offered
    assert report.completed > 0 and report.errors == 0
    # The first tail poll precedes any completion: None, per the
    # Series empty-window contract the load generator relies on.
    assert report.tail_samples and report.tail_samples[0] is None
    overall = report.latency["overall"]
    assert overall["p50"] <= overall["p99"] <= overall["p999"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("closed", "open", "both"),
                        default="both")
    parser.add_argument("--queries", type=int, default=TOTAL_QUERIES)
    parser.add_argument("--concurrency", type=int, default=CLOSED_CONCURRENCY)
    parser.add_argument("--rate", type=float, default=OPEN_RATE_QPS)
    parser.add_argument("--batch-fraction", type=float, default=BATCH_FRACTION)
    parser.add_argument("--tenants", type=int, default=len(TENANTS))
    parser.add_argument("--max-inflight", type=int, default=MAX_INFLIGHT)
    parser.add_argument("--queue-depth", type=int, default=QUEUE_DEPTH)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    tenants = tuple(f"tenant-{i}" for i in range(max(1, args.tenants)))
    modes = ("closed", "open") if args.mode == "both" else (args.mode,)
    for mode in modes:
        report, observability = serve(
            mode, queries=args.queries, concurrency=args.concurrency,
            rate=args.rate, batch_fraction=args.batch_fraction,
            tenants=tenants, max_inflight=args.max_inflight,
            queue_depth=args.queue_depth, timeout_s=args.timeout,
            seed=args.seed,
        )
        _print_report(f"Serving {mode} loop", report)
        for name, status in observability["slo"].items():
            state = "FIRING" if status["alerting"] else "ok"
            print(
                f"slo {name}: {state}  fast_burn={status['fast_burn']:.2f}  "
                f"slow_burn={status['slow_burn']:.2f}"
            )
        write_report(f"serving_{mode}", report, observability)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
