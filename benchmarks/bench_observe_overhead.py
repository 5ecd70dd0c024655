"""Observability instrumentation overhead: traced vs dark, wall clock.

The observability plane (span trees, structured events, slow-query
sampling) rides the query hot path, so this bench holds it to a
committed bound on the paths that are actually served: with everything
on, real python wall time for a fixed query workload must stay within
**10%** of the same workload with instrumentation off (tracer disabled,
event log detached, slowlog sampling off) — both **direct**
(``db.execute``) and **staged** (``ServingFrontend.submit`` on the
virtual-time loop, the path every served query takes).

Both engines are built once; only the query loop is timed, repeated
``REPEATS`` times taking the minimum (steadiest) wall time per config.
All query *results* are identical either way — instrumentation must
never change what a query returns.

The wall-vs-simulated attribution table is not a separate pass: it is
:func:`repro.observe.trace.profile` over the span trees the instrumented
engine retained while being measured.

Artifacts, in ``benchmarks/results/``: ``observe_overhead.json`` plus
the instrumented run's ``observe_events.jsonl`` and
``observe_slowlog.jsonl``.

Standalone::

    PYTHONPATH=src python benchmarks/bench_observe_overhead.py
"""

import os
import sys
import time


if __package__ in (None, ""):  # standalone CLI
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    RESULTS_DIR,
    fmt_table,
    load_blendhouse,
    smoke_scaled,
    write_results,
)
from repro.observe.trace import profile
from repro.serving import QueryRequest, ServingFrontend, run_virtual
from repro.workloads.datasets import make_cohere_like

N = smoke_scaled(6000, 1500)
DIM = smoke_scaled(48, 16)
N_QUERIES = smoke_scaled(40, 16)
QUERIES_PER_PASS = smoke_scaled(300, 80)
REPEATS = 5
SEGMENT_ROWS = smoke_scaled(1200, 500)
# The committed bound: full instrumentation costs at most this much
# extra wall time (CI gates on it in the `checks` job's observe entry).
MAX_OVERHEAD = 0.10


def vector_sql(vector):
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def build_engine(instrumented):
    """One loaded engine, instrumentation fully on or fully dark."""
    dataset = make_cohere_like(n=N, dim=DIM, n_queries=N_QUERIES, seed=7)
    db = load_blendhouse(dataset, index_type="HNSW",
                         max_segment_rows=SEGMENT_ROWS)
    if instrumented:
        # Representative production config: tracing on, events on,
        # slowlog in tail-sampling mode with a realistic threshold.
        db.execute("SET slowlog_threshold_ms = 5")
        db.execute("SET slowlog_sample_every = 20")
    else:
        db.tracer.enabled = False
        db.metrics.events = None  # emit_event becomes a no-op
        db.settings.slowlog_sample_every = 0
        db.settings.slowlog_threshold_ms = float("inf")
    sqls = [
        f"SELECT id, dist FROM bench ORDER BY "
        f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 10"
        for query in dataset.queries
    ]
    return db, sqls


def checksum_of(results):
    checksum = 0
    for result in results:
        checksum ^= hash(tuple(row[0] for row in result.rows))
    return checksum


def run_direct(db, sqls):
    """One timed pass of ``db.execute``; returns (wall_s, checksum)."""
    start = time.perf_counter()
    results = [db.execute(sqls[qi % len(sqls)]) for qi in range(QUERIES_PER_PASS)]
    return time.perf_counter() - start, checksum_of(results)


def run_staged(db, sqls):
    """One timed pass through the serving front-end, one closed-loop client."""
    frontend = ServingFrontend(db)

    async def client():
        return [
            frontend.unwrap(await frontend.submit(QueryRequest(sql=sqls[qi % len(sqls)])))
            for qi in range(QUERIES_PER_PASS)
        ]

    start = time.perf_counter()
    results = run_virtual(client())
    return time.perf_counter() - start, checksum_of(results)


# path -> one timed pass
PATHS = {"direct": run_direct, "staged": run_staged}


def measure():
    """Interleaved A/B wall-time measurement of both configs per path.

    Each repeat is one dark and one instrumented pass, and which of
    the two runs first alternates from repeat to repeat (dark first,
    then traced first, ...), so slow machine-level drift (frequency
    scaling, page cache state) favours neither config; the minimum per
    config is the steadiest observation.
    """
    db_off, sqls = build_engine(instrumented=False)
    db_on, _ = build_engine(instrumented=True)
    rows = {}
    for path, run_pass in PATHS.items():
        run_pass(db_off, sqls)  # warmups: caches, plan cache, index loads
        run_pass(db_on, sqls)
        walls = {db_off: [], db_on: []}
        sums = {}
        for repeat in range(REPEATS):
            for db in (db_off, db_on) if repeat % 2 == 0 else (db_on, db_off):
                wall, sums[db] = run_pass(db, sqls)
                walls[db].append(wall)
        assert sums[db_on] == sums[db_off], f"instrumentation changed {path} query results"
        wall_off, wall_on = min(walls[db_off]), min(walls[db_on])
        rows[path] = {
            "wall_off_s": wall_off,
            "wall_on_s": wall_on,
            "overhead": (wall_on - wall_off) / wall_off,
            "traced_minus_dark_us_per_query":
                (wall_on - wall_off) / QUERIES_PER_PASS * 1e6,
            # What the traces retained while this path ran say about it.
            "profile": profile(db_on.tracer.roots),
        }
    return db_on, rows


def report(db_on, rows):
    """Print both tables and write the artifacts."""
    print(fmt_table(
        f"Observability overhead: {QUERIES_PER_PASS} queries, "
        f"min of {REPEATS} passes (real seconds)",
        ["path", "dark (s)", "traced (s)", "traced - dark (us/query)",
         f"overhead (<= {MAX_OVERHEAD:.0%})"],
        [
            [path, row["wall_off_s"], row["wall_on_s"],
             row["traced_minus_dark_us_per_query"], row["overhead"]]
            for path, row in rows.items()
        ],
    ))
    for path, row in rows.items():
        print(fmt_table(
            f"Wall vs simulated time per span name ({path}; retained traces)",
            ["span", "calls", "wall ms", "sim ms", "wall/sim"],
            [
                [name, stat["calls"], stat["wall_s"] * 1e3, stat["sim_s"] * 1e3,
                 "-" if stat["wall_per_sim"] is None else f"{stat['wall_per_sim']:.2f}"]
                for name, stat in row["profile"].items()
            ],
        ))
    metrics = {
        "events/total": (db_on.events.summary()["total"], "count"),
        "slowlog_recorded": (db_on.slowlog.recorded, "count"),
    }
    for path, row in rows.items():
        metrics[f"{path}/wall_off_s"] = (row["wall_off_s"], "s")
        metrics[f"{path}/wall_on_s"] = (row["wall_on_s"], "s")
        metrics[f"{path}/overhead"] = (row["overhead"], "ratio")
        metrics[f"{path}/traced_minus_dark_us_per_query"] = (
            row["traced_minus_dark_us_per_query"], "us")
    write_results("observe_overhead", metrics)
    db_on.events.dump_jsonl(os.path.join(RESULTS_DIR, "observe_events.jsonl"))
    db_on.slowlog.dump_jsonl(os.path.join(RESULTS_DIR, "observe_slowlog.jsonl"))


def over_bound(rows):
    """The paths whose overhead exceeds the committed bound."""
    return {
        path: row["overhead"] for path, row in rows.items()
        if row["overhead"] > MAX_OVERHEAD
    }


def test_observe_overhead():
    db_on, rows = measure()
    report(db_on, rows)

    # The instrumented run actually instrumented: events flowed, the
    # tail sampler captured flight records, and every path left whole
    # query trees behind with both clocks on them.
    assert db_on.events.summary()["total"] > 0
    assert db_on.slowlog.recorded > 0
    for path, row in rows.items():
        assert row["profile"]["segment_scan"]["sim_s"] > 0, path
        assert row["profile"]["query"]["wall_s"] > 0, path
    assert not over_bound(rows), (
        f"instrumentation overhead {over_bound(rows)} exceeds the committed "
        f"{MAX_OVERHEAD:.0%} bound"
    )


def main():
    db_on, rows = measure()
    report(db_on, rows)
    return 1 if over_bound(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
