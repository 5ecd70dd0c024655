"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation section (see DESIGN.md §4 for the experiment index).  The
helpers here load datasets into engines, drive SQL workloads, sweep
search parameters, and format result tables that are printed to stdout
(run with ``pytest benchmarks/ -s`` to see them).  A bench whose numbers
feed a gate or a README table also writes them with ``write_results``.

Numbers are *simulated* seconds/QPS unless a bench says otherwise; the
claim being reproduced is always the paper's qualitative shape, not the
absolute values (see DESIGN.md §2).
"""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.database import BlendHouse
from repro.simulate.costmodel import DeviceCostModel
from repro.workloads.datasets import Dataset
from repro.workloads.recall import recall_at_k
from repro.workloads.vectorbench import HybridWorkload, SweepPoint, qps_from_latencies

# Benchmark cost calibration: the datasets are ~100-1000x smaller than
# the paper's, which shrinks compute costs but not per-request object
# store latency; real ingest paths also overlap PUTs.  A reduced
# first-byte latency keeps the compute/IO balance representative at
# repro scale (DESIGN.md section 2).
BENCH_COST = DeviceCostModel().scaled(object_store_latency_s=3e-3)

# CI smoke mode: BENCH_SMOKE=1 shrinks the workloads so the bench job
# finishes in a couple of minutes while exercising the same code paths
# and assertions.
BENCH_SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
T = TypeVar("T")


def smoke_scaled(full: T, smoke: T) -> T:
    """``full`` normally, ``smoke`` when BENCH_SMOKE is set."""
    return smoke if BENCH_SMOKE else full


RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def write_results(name: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Write one bench's results as ``benchmarks/results/<name>.json``.

    ``metrics`` maps a slash-separated name to ``(value, unit)``.  The
    file has the ledger's result shape: a host block and
    ``{"metrics": {name: {"value": number, "unit": str}}}``, which is
    what ``check_regression.py`` compares against a baseline.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    payload = {
        "host": {
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "numpy": np.__version__, "python": platform.python_version(),
        },
        "metrics": {
            key: {"value": value.item() if isinstance(value, np.generic) else value,
                  "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_blendhouse(
    dataset: Dataset,
    index_type: Optional[str] = "HNSW",
    index_options: str = "",
    table: str = "bench",
    max_segment_rows: int = 1500,
    ddl_suffix: str = "",
    scalar_ddl: str = "attr Int64",
    scalar_columns: Optional[Sequence[str]] = None,
) -> BlendHouse:
    """A BlendHouse with ``dataset`` loaded into ``table``; an
    ``index_type`` of None declares no vector index."""
    db = BlendHouse(cost_model=BENCH_COST)
    index = ""
    if index_type is not None:
        options = f"'DIM={dataset.dim}'"
        if index_options:
            options += f", '{index_options}'"
        index = f", INDEX ann embedding TYPE {index_type}({options})"
    db.execute(
        f"CREATE TABLE {table} (id UInt64, {scalar_ddl}, "
        f"embedding Array(Float32){index}) {ddl_suffix}"
    )
    db.table(table).writer.config.max_segment_rows = max_segment_rows
    names = list(scalar_columns or ["id", "attr"])
    db.insert_columns(
        table,
        {name: dataset.scalars[name] for name in names},
        dataset.vectors,
    )
    return db


def run_workload_sql(
    db: BlendHouse,
    workload: HybridWorkload,
    table: str = "bench",
    settings_sql: Sequence[str] = (),
) -> Tuple[List[float], List[List[int]]]:
    """Run every workload query through SQL; returns (latencies, ids)."""
    for statement in settings_sql:
        db.execute(statement)
    latencies: List[float] = []
    results: List[List[int]] = []
    for qi in range(len(workload.queries)):
        sql = workload.sql(qi, table=table)
        start = db.clock.now
        out = db.execute(sql)
        latencies.append(db.clock.now - start)
        results.append([row[0] for row in out.rows])
    return latencies, results


def measure_blendhouse(
    db: BlendHouse,
    workload: HybridWorkload,
    table: str = "bench",
    settings_sql: Sequence[str] = (),
) -> Tuple[float, float]:
    """(qps, recall) for one workload run."""
    latencies, results = run_workload_sql(db, workload, table, settings_sql)
    return qps_from_latencies(latencies), recall_at_k(results, workload.truth, workload.k)


def sweep_blendhouse(
    db: BlendHouse,
    workload: HybridWorkload,
    ef_values: Sequence[int],
    table: str = "bench",
) -> List[SweepPoint]:
    """Recall/QPS points over an ef_search sweep (VectorDBBench style).

    A short warmup pass fills the plan and column caches first, so the
    sweep measures steady-state throughput (what the paper reports), not
    first-touch cold misses.
    """
    for qi in range(min(3, len(workload.queries))):
        db.execute(workload.sql(qi, table=table))
    points: List[SweepPoint] = []
    for ef in ef_values:
        db.execute(f"SET ef_search = {ef}")
        qps, recall = measure_blendhouse(db, workload, table)
        points.append(SweepPoint(params={"ef_search": ef}, recall=recall, qps=qps))
    return points


def measure_baseline(
    system: Any,
    workload: HybridWorkload,
    **search_params: Any,
) -> Tuple[float, float]:
    """(qps, recall) for a baseline system on one workload."""
    latencies: List[float] = []
    results: List[List[int]] = []
    for qi in range(len(workload.queries)):
        start = system.clock.now
        ids, _ = system.search(
            workload.queries[qi], workload.k, mask=workload.masks[qi], **search_params
        )
        latencies.append(system.clock.now - start)
        results.append(ids.tolist())
    return qps_from_latencies(latencies), recall_at_k(results, workload.truth, workload.k)


def sweep_baseline(
    system: Any,
    workload: HybridWorkload,
    ef_values: Sequence[int],
) -> List[SweepPoint]:
    """Recall/QPS sweep for a baseline."""
    points: List[SweepPoint] = []
    for ef in ef_values:
        qps, recall = measure_baseline(system, workload, ef_search=ef)
        points.append(SweepPoint(params={"ef_search": ef}, recall=recall, qps=qps))
    return points


def best_at_recall(
    points: List[SweepPoint], target: float
) -> Tuple[Optional[SweepPoint], SweepPoint]:
    """(best point meeting target, best-recall point as fallback)."""
    eligible = [p for p in points if p.recall >= target]
    fallback = max(points, key=lambda p: p.recall)
    if not eligible:
        return None, fallback
    return max(eligible, key=lambda p: p.qps), fallback


def fmt_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text table for bench output."""
    str_rows = [[_fmt_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows)) if str_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt_cell(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def measure_serial_latency(
    db: BlendHouse, sqls: Sequence[str], include_planning: bool = True
) -> Tuple[float, List[List[int]]]:
    """(total simulated seconds, result ids) issuing queries one by one.

    With ``include_planning`` the total is the clock delta around each
    ``execute`` — the batched path pays its planning inside the
    submission, so both sides of a serial-vs-batch comparison must count
    it.  Without it the total is execution-only (each result's
    ``simulated_seconds``), isolating the scan for fan-out comparisons.
    """
    total = 0.0
    results: List[List[int]] = []
    for sql in sqls:
        start = db.clock.now
        out = db.execute(sql)
        if include_planning:
            total += db.clock.now - start
        else:
            total += out.simulated_seconds
        results.append([row[0] for row in out.rows])
    return total, results


def measure_batch_latency(
    db: BlendHouse, sqls: Sequence[str]
) -> Tuple[float, List[List[int]]]:
    """(total simulated seconds, result ids) for one batched submission."""
    start = db.clock.now
    outs = db.execute_batch(list(sqls))
    total = db.clock.now - start
    return total, [[row[0] for row in out.rows] for out in outs]
