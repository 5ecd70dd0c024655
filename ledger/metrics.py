"""Metric definitions and how each is derived.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names; ``BENCHMARK.json`` lists the same names (the self-tests compare
them both ways).  End-to-end values come from the untraced run,
per-layer values from the traced run.

Wall statistics are divided by the host slowdown probed while they were
measured (``ledger/probe.py``).  Latency percentiles are taken over every
timed read of the run; rates and write statistics are computed per round
(or per build) and the median across them is reported.  Count metrics
(``exact=True``) come from the first timed round and repeat exactly for
a given seed.
"""

from __future__ import annotations

import os
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ledger.data import user_bytes
from ledger.interpose import SpanStats
from ledger.workloads import RestartLog, RoundLog, Workload, WriteLog


@dataclass(frozen=True)
class Spec:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    exact: bool  # a count or simulated-clock value: equal on every same-seed run
    bound: float = 0.0  # end-to-end only: tolerated worsening, share of the median
    moves: str = ""  # per-layer only: the end-to-end metric it should move, and where


def _e(name: str, unit: str, better: str, bound: float, exact: bool = False) -> Spec:
    return Spec(name, unit, better, exact, bound=bound)


# Bounds come from the spread measured across ten seeds on the shared
# 2-core container (README, "Steadiness"): interference from other
# tenants leaves interpreter-bound timings an inter-quartile spread of
# 0.03-0.11 even after the host-speed correction, and single-event
# maxima up to 0.19, so the wall bounds sit at or near the contract's
# ceiling of 0.25.  Counts repeat exactly per seed; their bounds cover
# only the seed-to-seed difference in the generated data.
END_TO_END: Tuple[Spec, ...] = (
    _e("setup_s", "s", "lower", 0.25),
    _e("query_ms_p50", "ms", "lower", 0.20),
    _e("query_ms_p95", "ms", "lower", 0.25),
    _e("query_per_s", "1/s", "higher", 0.20),
    _e("sim_query_per_s", "1/s", "higher", 0.15, exact=True),
    _e("sim_query_ms_p95", "ms", "lower", 0.10, exact=True),
    _e("recall_at_10", "ratio", "higher", 0.05, exact=True),
    _e("peak_rss_mb", "MB", "lower", 0.15),
    _e("ingest_rows_per_s", "1/s", "higher", 0.25),
    _e("insert_ms_p50", "ms", "lower", 0.25),
    _e("write_ms_max", "ms", "lower", 0.25),
    _e("space_amp", "ratio", "lower", 0.05, exact=True),
    _e("recover_ms", "ms", "lower", 0.25),
)


def _l(name: str, unit: str, better: str, moves: str, exact: bool = False) -> Spec:
    return Spec(name, unit, better, exact, moves=moves)


_FS = "query_ms_p50, query_per_s on filter_served"
_AD = "query_ms_p50, query_per_s on ann_direct"
_FC = "query_ms_p50, sim_query_ms_p95 on fleet_cold"
_IM = "insert_ms_p50, ingest_rows_per_s on ingest_mixed"

PER_LAYER: Tuple[Spec, ...] = (
    _l("sqlparser.parse.self_us_per_query", "us", "lower", _FS),
    _l("sqlparser.parse.calls_per_query", "count", "lower", _FS, True),
    _l("planner.plan.self_us_per_query", "us", "lower", _FS),
    _l("planner.plan_cache.hit_rate", "ratio", "higher", _FS, True),
    _l("planner.rebinds_per_query", "count", "higher", _FS, True),
    _l("planner.strategy.brute_force_frac", "ratio", "lower",
       "query_ms_p95, recall_at_10 on ann_direct", True),
    _l("planner.strategy.pre_filter_frac", "ratio", "lower",
       "query_ms_p95, recall_at_10 on ann_direct", True),
    _l("planner.strategy.post_filter_frac", "ratio", "lower",
       "query_ms_p95, recall_at_10 on ann_direct", True),
    _l("partition.prune.self_us_per_query", "us", "lower", _FS),
    _l("partition.segments_kept_per_query", "count", "lower",
       "sim_query_per_s on every workload", True),
    _l("storage.manifest.snapshot.self_us_per_query", "us", "lower", _FS),
    _l("storage.manifest.commits", "count", "lower", "insert_ms_p50 on ingest_mixed", True),
    _l("core.execute.self_us_per_query", "us", "lower", _FS),
    _l("core.query_ms_p50.pure", "ms", "lower", "query_ms_p50 on ann_direct"),
    _l("core.query_ms_p50.pass10", "ms", "lower", "query_ms_p50 on ann_direct"),
    _l("core.query_ms_p50.pass25", "ms", "lower", "query_ms_p95 on ann_direct"),
    _l("core.query_ms_p50.pass90", "ms", "lower", "query_ms_p95 on ann_direct"),
    _l("executor.scan.self_us_per_query", "us", "lower", _AD),
    _l("executor.merge.self_us_per_query", "us", "lower", _AD),
    _l("executor.columnio.self_us_per_query", "us", "lower",
       "query_ms_p50 on filter_served and the hybrid classes of ann_direct"),
    _l("executor.columnio.cache_hit_rate", "ratio", "higher",
       "sim_query_per_s on filter_served", True),
    _l("executor.segments_scanned_per_query", "count", "lower",
       "query_ms_p50 on every workload", True),
    _l("executor.rows_examined_per_result", "count", "lower",
       "sim_query_per_s on every workload", True),
    _l("vindex.search.self_ms_per_query", "ms", "lower", _AD + "; not on filter_served"),
    _l("vindex.search.calls_per_query", "count", "lower", _AD, True),
    _l("vindex.visited_per_query", "count", "lower",
       "sim_query_per_s, recall_at_10 on ann_direct", True),
    _l("vindex.build.self_s", "s", "lower",
       "setup_s on the HNSW workloads; ingest_rows_per_s everywhere"),
    _l("vindex.deserialize.calls", "count", "lower", "query_ms_p50 on fleet_cold", True),
    _l("vindex.deserialize.self_ms_per_call", "ms", "lower", "query_ms_p50 on fleet_cold"),
    _l("storage.cache.get.self_us_per_query", "us", "lower", _FC),
    _l("storage.cache.memory_hit_rate", "ratio", "higher", _FC, True),
    _l("storage.cache.disk_hits", "count", "lower", _FC, True),
    _l("storage.cache.shared_hits", "count", "lower", _FC, True),
    _l("storage.cache.remote_fetches", "count", "lower", _FC, True),
    _l("storage.cache.memory_evictions", "count", "lower", _FC, True),
    _l("storage.objectstore.puts", "count", "lower", "ingest_rows_per_s on ingest_mixed", True),
    _l("storage.objectstore.gets", "count", "lower", "sim_query_ms_p95 on fleet_cold", True),
    _l("storage.objectstore.put_bytes", "B", "lower", "space_amp on ingest_mixed", True),
    _l("storage.objectstore.get_bytes", "B", "lower", "sim_query_ms_p95 on fleet_cold", True),
    _l("storage.objectstore.write_amp", "ratio", "lower",
       "space_amp, ingest_rows_per_s on ingest_mixed", True),
    _l("serving.submit.self_us_per_query", "us", "lower", _FS + "; absent elsewhere"),
    _l("serving.stages_per_query", "count", "lower", _FS, True),
    _l("serving.queue_wait_sim_ms_p50", "ms", "lower",
       "sim_query_ms_p95 on filter_served", True),
    _l("serving.rejected", "count", "lower", "failed ops on filter_served", True),
    _l("cluster.warehouse.self_us_per_query", "us", "lower", "query_ms_p50 on fleet_cold"),
    _l("cluster.scheduler.assign.self_us_per_query", "us", "lower",
       "query_ms_p50 on fleet_cold"),
    _l("cluster.worker.resolve.self_us_per_query", "us", "lower", "query_ms_p50 on fleet_cold"),
    _l("cluster.rpc.calls_per_query", "count", "lower",
       "sim_query_ms_p95 on fleet_cold", True),
    _l("cluster.rpc.self_us_per_query", "us", "lower", "query_ms_p50 on fleet_cold"),
    _l("elastic.execute.self_us_per_query", "us", "lower", "query_ms_p50 on fleet_cold"),
    _l("elastic.route.self_us_per_query", "us", "lower", "query_ms_p50 on fleet_cold"),
    _l("elastic.scale_out.self_ms", "ms", "lower", "query_ms_p95 on fleet_cold"),
    _l("elastic.preload.self_ms", "ms", "lower", "query_ms_p95 on fleet_cold"),
    _l("elastic.scale_in.self_ms", "ms", "lower", "query_ms_p95 on fleet_cold"),
    _l("elastic.served_by_joined_frac", "ratio", "higher",
       "sim_query_ms_p95 on fleet_cold", True),
    _l("elastic.router.moved_fraction", "ratio", "lower",
       "sim_query_ms_p95 on fleet_cold", True),
    _l("ingest.write.self_ms_per_batch", "ms", "lower", _IM),
    _l("ingest.delete.self_us_per_stmt", "us", "lower", "ingest_rows_per_s on ingest_mixed"),
    _l("ingest.update.self_us_per_stmt", "us", "lower", "ingest_rows_per_s on ingest_mixed"),
    _l("durability.wal.self_us_per_stmt", "us", "lower", _IM),
    _l("durability.wal.bytes_per_user_byte", "ratio", "lower",
       "space_amp on ingest_mixed", True),
    _l("durability.wal.flushes", "count", "lower", "insert_ms_p50 on ingest_mixed", True),
    _l("durability.checkpoint.self_ms_total", "ms", "lower", "recover_ms, space_amp"),
    _l("durability.checkpoints", "count", "lower", "space_amp on ingest_mixed", True),
    _l("durability.recover.self_ms", "ms", "lower", "recover_ms on every workload"),
    _l("storage.compaction.self_s_total", "s", "lower",
       "write_ms_max, ingest_rows_per_s on ingest_mixed"),
    _l("storage.compaction.merges", "count", "lower", "write_ms_max on ingest_mixed", True),
    _l("storage.compaction.deepest_level_merges", "count", "higher",
       "query_ms_p50 on ingest_mixed (segments left to scan)", True),
    _l("storage.compaction.rows_rewritten_per_user_row", "ratio", "lower",
       "ingest_rows_per_s, space_amp on ingest_mixed", True),
    _l("storage.compaction.stall_ms_max", "ms", "lower", "write_ms_max on ingest_mixed"),
    _l("catalog.statistics.self_ms_total", "ms", "lower", "ingest_rows_per_s on ingest_mixed"),
    _l("ledger.trace_overhead_frac", "ratio", "lower", "explains, moves nothing"),
    _l("ledger.spans_per_query", "count", "lower", "explains, moves nothing", True),
    _l("ledger.unattributed_frac", "ratio", "lower", "explains, moves nothing"),
    _l("ledger.host.slowdown", "ratio", "lower", "explains, moves nothing"),
    _l("ledger.host.calib_gemm_ms", "ms", "lower", "explains, moves nothing"),
    _l("ledger.host.cpu_count", "count", "higher", "explains, moves nothing", True),
)

# A value with its sample count, as printed next to each metric.
Sampled = Tuple[float, int]


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def calibrate_gemm_ms() -> float:
    """Median of nine fixed 512x512 float32 GEMMs: how fast this host is."""
    rng = np.random.default_rng(0)
    a = rng.random((512, 512), dtype=np.float32)
    b = rng.random((512, 512), dtype=np.float32)
    times = []
    for _ in range(9):
        start = perf_counter()
        a @ b
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _answered(log: RoundLog) -> List[int]:
    return [slot for slot, rows in enumerate(log.rows) if rows is not None]


def end_to_end(
    workload: Workload,
    setup_s: List[float],
    builds: List[WriteLog],
    warmup: RoundLog,
    rounds: List[RoundLog],
    write_units: List[WriteLog],
    recalls: List[float],
    restarts: RestartLog,
) -> Dict[str, Sampled]:
    """The end-to-end metrics of one untraced run."""
    first = rounds[0]
    sims = [first.sim_s[slot] for slot in _answered(first)]
    reads = sum(len(log.wall_s) for log in rounds)
    if workload.writes_in_rounds:
        # Reads share the round with writes: time only the reads.
        per_s = [len(log.wall_s) / sum(log.wall_s) * log.slowdown for log in rounds]
    else:
        per_s = [len(log.wall_s) / log.round_s * log.slowdown for log in rounds]
    live = workload.oracle().live_rows
    median = statistics.median
    walls = [wall / log.slowdown for log in rounds for wall in log.wall_s]
    # Every wall statistic is divided by the host slowdown probed while
    # it was measured (rates are multiplied): see ledger/probe.py.
    return {
        "setup_s": (
            median(s / unit.slowdown for s, unit in zip(setup_s, builds))
            + warmup.round_s / warmup.slowdown, len(setup_s)),
        "query_ms_p50": (percentile(walls, 50) * 1e3, reads),
        "query_ms_p95": (percentile(walls, 95) * 1e3, reads),
        "query_per_s": (median(per_s), reads),
        "sim_query_per_s": (len(sims) / sum(sims), len(sims)),
        "sim_query_ms_p95": (percentile(sims, 95) * 1e3, len(sims)),
        "recall_at_10": (statistics.fmean(recalls), len(recalls)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        # Write statements arrive already corrected, one by one (WriteLog).
        "ingest_rows_per_s": (
            median(unit.rows / sum(unit.all_s) for unit in write_units),
            sum(unit.rows for unit in write_units)),
        "insert_ms_p50": (
            median(median(unit.insert_s) for unit in write_units) * 1e3,
            sum(len(unit.insert_s) for unit in write_units)),
        "write_ms_max": (
            median(max(unit.all_s) for unit in write_units) * 1e3,
            sum(len(unit.all_s) for unit in write_units)),
        "space_amp": (
            restarts.store_bytes / user_bytes(live, workload.data.dim), 1),
        "recover_ms": (
            median(restarts.recover_s) / restarts.slowdown * 1e3, len(restarts.recover_s)),
    }


def per_layer(
    workload: Workload,
    setup: Dict[str, SpanStats],
    traced: Dict[str, SpanStats],
    recover: Dict[str, SpanStats],
    root_ns: int,
    span_count: int,
    reference: RoundLog,
    log: RoundLog,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``traced`` summarizes the spans of the traced round ``log``;
    ``setup`` and ``recover`` those of the build and the restart phase
    (all already divided by the host slowdown of their phase);
    ``reference`` is the same round replayed with recording off.
    """
    counters = log.counters
    queries = max(1, len(log.wall_s))
    batches = max(1, len(log.writes.insert_s))
    statements = max(1, len(log.writes.all_s))
    written_bytes = user_bytes(log.writes.rows, workload.data.dim)
    result_rows = max(1, sum(len(rows) for rows in log.rows if rows is not None))

    def span(name: str, source: Dict[str, SpanStats] = traced) -> SpanStats:
        return source.get(name, SpanStats())

    def self_ns(*prefixes: str, source: Dict[str, SpanStats] = traced) -> int:
        return sum(
            stats.self_ns for name, stats in source.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )

    def per_query_us(*prefixes: str) -> float:
        return self_ns(*prefixes) / 1e3 / queries

    def ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
        return numerator / denominator if denominator else empty

    def class_p50(kind: str) -> float:
        walls = [w for w, read in zip(reference.wall_s, reference.reads) if read.kind == kind]
        return percentile(walls, 50) / reference.slowdown * 1e3 if walls else 0.0

    def strategy_frac(strategy: str) -> float:
        return log.strategy.count(strategy) / queries

    # Index resolutions: through the table's own memo on the direct paths,
    # through the workers' hierarchical caches on the fleet path.
    direct_resolves = span("core.resolve_index").count
    tiered = sum(counters[f"index_cache.{tier}"] for tier in
                 ("memory_hits", "disk_hits", "shared_hits", "remote_fetches"))
    memory_hits = (
        counters["index_cache.memory_hits"]
        + direct_resolves - counters["table.index_cold_loads"]
    )
    column_fetches = (
        counters["columnio.cache_hits"] + counters["columnio.ranged_reads"]
        + counters["columnio.block_reads"]
    )
    deserialize = span("vindex.deserialize")
    compaction = span("storage.compaction.run")
    restarts_seen = max(1, span("durability.recover", recover).count)
    queue_wait = log.extra.get("queue_wait_s") or [0.0]

    values = {
        "sqlparser.parse.self_us_per_query": per_query_us("sqlparser"),
        "sqlparser.parse.calls_per_query": span("sqlparser.parse").count / queries,
        "planner.plan.self_us_per_query": per_query_us("planner"),
        "planner.plan_cache.hit_rate": ratio(
            counters["plan_cache.hits"],
            counters["plan_cache.hits"] + counters["plan_cache.misses"]),
        "planner.rebinds_per_query": counters["planner.rebinds"] / queries,
        "planner.strategy.brute_force_frac": strategy_frac("brute_force"),
        "planner.strategy.pre_filter_frac": strategy_frac("pre_filter"),
        "planner.strategy.post_filter_frac": strategy_frac("post_filter"),
        "partition.prune.self_us_per_query": per_query_us("partition"),
        "partition.segments_kept_per_query": counters["pruning.scalar_kept"] / queries,
        "storage.manifest.snapshot.self_us_per_query": per_query_us(
            "storage.manifest.snapshot", "storage.manifest.bitmap", "storage.manifest.release"),
        "storage.manifest.commits": counters["mvcc.commits"],
        "core.execute.self_us_per_query": per_query_us(
            "core.execute", "core.select_stages", "core.resolve_index"),
        "core.query_ms_p50.pure": class_p50("pure"),
        "core.query_ms_p50.pass10": class_p50("pass10"),
        "core.query_ms_p50.pass25": class_p50("pass25"),
        "core.query_ms_p50.pass90": class_p50("pass90"),
        "executor.scan.self_us_per_query": per_query_us("executor.scan"),
        "executor.merge.self_us_per_query": per_query_us("executor.merge"),
        "executor.columnio.self_us_per_query": per_query_us("executor.columnio"),
        "executor.columnio.cache_hit_rate": ratio(
            counters["columnio.cache_hits"], column_fetches),
        "executor.segments_scanned_per_query": span("executor.scan").count / queries,
        "executor.rows_examined_per_result": (
            counters["annscan.visited"] + counters["annscan.brute_force_rows"]) / result_rows,
        "vindex.search.self_ms_per_query": self_ns("vindex.search") / 1e6 / queries,
        "vindex.search.calls_per_query": span("vindex.search").count / queries,
        "vindex.visited_per_query": counters["annscan.visited"] / queries,
        "vindex.build.self_s": (
            self_ns("vindex.build", "vindex.serialize", source=setup)
            + self_ns("vindex.build", "vindex.serialize")) / 1e9,
        "vindex.deserialize.calls": deserialize.count,
        "vindex.deserialize.self_ms_per_call": ratio(
            deserialize.self_ns / 1e6, deserialize.count),
        "storage.cache.get.self_us_per_query": per_query_us("storage.cache"),
        "storage.cache.memory_hit_rate": ratio(
            memory_hits, tiered + direct_resolves, empty=1.0),
        "storage.cache.disk_hits": counters["index_cache.disk_hits"],
        "storage.cache.shared_hits": counters["index_cache.shared_hits"],
        "storage.cache.remote_fetches": counters["index_cache.remote_fetches"],
        "storage.cache.memory_evictions": counters["index_cache.memory_evictions"],
        "storage.objectstore.puts": counters["objectstore.put"],
        "storage.objectstore.gets": (
            counters["objectstore.get"] + counters["objectstore.get_range"]),
        "storage.objectstore.put_bytes": counters["objectstore.put_bytes"],
        "storage.objectstore.get_bytes": counters["objectstore.get_bytes"],
        "storage.objectstore.write_amp": ratio(counters["objectstore.put_bytes"], written_bytes),
        "serving.submit.self_us_per_query": per_query_us("serving"),
        "serving.stages_per_query": span("core.select_stages.step").count / queries,
        "serving.queue_wait_sim_ms_p50": percentile(queue_wait, 50) * 1e3,
        "serving.rejected": (
            counters["serving.rejected_admission"] + counters["serving.rejected_quota"]),
        "cluster.warehouse.self_us_per_query": per_query_us("cluster.warehouse"),
        "cluster.scheduler.assign.self_us_per_query": per_query_us("cluster.scheduler"),
        "cluster.worker.resolve.self_us_per_query": per_query_us("cluster.worker"),
        "cluster.rpc.calls_per_query": counters["rpc.calls"] / queries,
        "cluster.rpc.self_us_per_query": per_query_us("cluster.rpc"),
        "elastic.execute.self_us_per_query": per_query_us("elastic.execute"),
        "elastic.route.self_us_per_query": per_query_us("elastic.route", "elastic.poll"),
        "elastic.scale_out.self_ms": self_ns("elastic.scale_out") / 1e6,
        "elastic.preload.self_ms": self_ns("elastic.preload") / 1e6,
        "elastic.scale_in.self_ms": self_ns("elastic.scale_in") / 1e6,
        "elastic.served_by_joined_frac": log.extra.get("served_by_joined_frac", 0.0),
        "elastic.router.moved_fraction": log.extra.get("moved_fraction", 0.0),
        "ingest.write.self_ms_per_batch": (
            self_ns("ingest.write", "core.insert_columns") / 1e6 / batches),
        "ingest.delete.self_us_per_stmt": ratio(
            self_ns("ingest.delete") / 1e3, span("ingest.delete").count),
        "ingest.update.self_us_per_stmt": ratio(
            self_ns("ingest.update") / 1e3, span("ingest.update").count),
        "durability.wal.self_us_per_stmt": self_ns("durability.wal") / 1e3 / statements,
        "durability.wal.bytes_per_user_byte": ratio(
            counters["durability.wal_bytes"], written_bytes),
        "durability.wal.flushes": counters["durability.wal_flushes"],
        "durability.checkpoint.self_ms_total": (
            self_ns("durability.checkpoint")
            + self_ns("durability.checkpoint", source=recover)) / 1e6,
        "durability.checkpoints": (
            span("durability.checkpoint").count
            + span("durability.checkpoint", recover).count),
        "durability.recover.self_ms": (
            self_ns("durability.recover", source=recover) / 1e6 / restarts_seen),
        "storage.compaction.self_s_total": self_ns("storage.compaction") / 1e9,
        "storage.compaction.merges": counters["compaction.merges"],
        "storage.compaction.deepest_level_merges": log.extra.get("deepest_level_merges", 0),
        "storage.compaction.rows_rewritten_per_user_row": ratio(
            compaction.value, log.writes.rows),
        "storage.compaction.stall_ms_max": compaction.max_ns / 1e6,
        "catalog.statistics.self_ms_total": self_ns("catalog") / 1e6,
        "ledger.trace_overhead_frac": (
            (log.busy_s / log.slowdown) / (reference.busy_s / reference.slowdown) - 1.0),
        "ledger.spans_per_query": span_count / queries,
        "ledger.unattributed_frac": 1.0 - root_ns / 1e9 / log.busy_s,
        "ledger.host.slowdown": log.slowdown,
        "ledger.host.calib_gemm_ms": calibrate_gemm_ms(),
        "ledger.host.cpu_count": os.cpu_count() or 1,
    }
    return {name: float(value) for name, value in values.items()}
