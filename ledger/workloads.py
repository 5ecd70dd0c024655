"""The four workloads.  Names are fixed; later issues cite them.

Load model: on the wall clock this system is a library its callers wait
on, so every workload is a closed loop driven from this one process
with at most two clients, and engine settings stay at their defaults
(``parallel_workers=1``, ``executor_mode='thread'``).

Each workload is a table's life: *build* (generate, load, index — the
write-side metrics come from here on the read workloads), timed
*rounds* that replay one fixed op list, then checkpoint and cold
restarts.  Sizes are cut to what the driver's run budget allows
(``Sizes``); the reasons each workload exists are in
``BENCHMARK.json`` and ``ledger/README.md``.
"""

from __future__ import annotations

import asyncio
import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ledger.data import (
    ATTR_RANGE,
    TABLE,
    Dataset,
    create_table_sql,
    knn_sql,
    make_dataset,
)
from ledger.oracle import Oracle, Truth, Verdict, identical
from ledger.probe import Probe
from repro import BlendHouse
from repro.cluster.warehouse import WarehouseConfig
from repro.elastic import FleetBlendHouse, FleetConfig
from repro.elastic.router import route_key
from repro.ingest.writer import IngestConfig
from repro.serving import Lane, ServingFrontend, run_virtual

HNSW_PARAMS = "M=8, ef_construction=64"
PROBE_EVERY = 8  # reads between two host-speed probes
PASS30 = 3 * ATTR_RANGE // 10  # `attr < PASS30` passes ~30 % of the rows

# Engine counters read (as deltas around a round) through export_metrics().
COUNTERS = (
    "plan_cache.hits", "plan_cache.misses", "planner.rebinds",
    "pruning.scalar_kept", "mvcc.commits",
    "annscan.visited", "annscan.brute_force_rows",
    "columnio.cache_hits", "columnio.ranged_reads", "columnio.block_reads",
    "table.index_cold_loads",
    "index_cache.memory_hits", "index_cache.disk_hits", "index_cache.shared_hits",
    "index_cache.remote_fetches", "index_cache.memory_evictions",
    "objectstore.put", "objectstore.get", "objectstore.get_range",
    "objectstore.put_bytes", "objectstore.get_bytes",
    "serving.rejected_admission", "serving.rejected_quota",
    "rpc.calls", "compaction.merges",
    "durability.wal_bytes", "durability.wal_flushes",
)


@dataclass(frozen=True)
class Sizes:
    """Fixed workload sizes (``SMOKE`` is for the self-tests only)."""

    rows: int = 4000
    dim: int = 64
    segment_rows: int = 500
    ann_queries: int = 240
    served_queries: int = 800
    fleet_window: int = 68
    fleet_tenants: int = 12
    ingest_batches: int = 48
    ingest_batch_rows: int = 500
    ingest_reads: int = 10
    ingest_warmup_batches: int = 16
    verify_queries: int = 20
    restarts: int = 9
    setups: int = 3
    min_rounds: int = 3


FULL = Sizes()
SMOKE = Sizes(
    rows=640, dim=16, segment_rows=80, ann_queries=40, served_queries=60,
    fleet_window=12, fleet_tenants=6, ingest_batches=16, ingest_batch_rows=64,
    ingest_reads=4, ingest_warmup_batches=4, verify_queries=4, restarts=2,
    setups=1, min_rounds=1,
)


@dataclass
class Read:
    """One read of the op list with its exact answer."""

    kind: str
    sql: str
    truth: Truth
    tenant: str = "default"
    lane: str = "interactive"


@dataclass
class WriteLog:
    """Wall time of the write statements of one build or one ingest pass.

    Each statement's time is already divided by the host slowdown probed
    just before and just after it: the longest statement is one event, and
    a burst of interference landing on it would otherwise be the metric.
    """

    insert_s: List[float] = field(default_factory=list)
    other_s: List[float] = field(default_factory=list)  # DELETE / UPDATE
    rows: int = 0
    slowdown: float = 1.0  # host speed over the whole build (for setup_s)

    @property
    def all_s(self) -> List[float]:
        return self.insert_s + self.other_s


@dataclass
class RoundLog:
    """Everything one round measured."""

    reads: List[Read] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)  # per read, submit -> rows
    sim_s: List[float] = field(default_factory=list)
    rows: List[Optional[list]] = field(default_factory=list)  # None: the read failed
    strategy: List[str] = field(default_factory=list)
    round_s: float = 0.0  # wall time of the whole round, probing excluded
    busy_s: float = 0.0  # wall time inside calls into the program
    slowdown: float = 1.0  # host speed during the round (see ledger/probe.py)
    writes: WriteLog = field(default_factory=WriteLog)
    write_errors: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def add(self, read: Read, wall_s: float, result: Any = None, sim_s: float = 0.0) -> None:
        """Record one read; ``result`` is its QueryResult, None if it failed."""
        self.reads.append(read)
        self.wall_s.append(wall_s)
        self.sim_s.append(sim_s)
        self.rows.append(None if result is None else list(result.rows))
        self.strategy.append("" if result is None else result.strategy.value)


def _snapshot(exporter: Any) -> Dict[str, int]:
    return {name: exporter.counter(name) for name in COUNTERS}


@contextmanager
def _counting(log: RoundLog, engine: Any) -> Iterator[Any]:
    """Store the engine's counter deltas over the block in ``log.counters``."""
    exporter = engine.export_metrics()
    before = _snapshot(exporter)
    yield exporter
    after = _snapshot(exporter)
    log.counters = {name: after[name] - before[name] for name in after}


def _note_failure(what: str, exc: Exception) -> None:
    print(f"ledger: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def load_hnsw_table(engine: Any, data: Dataset, sizes: Sizes, probe: Probe) -> WriteLog:
    """CREATE the HNSW table and insert ``data`` one segment per batch."""
    engine.execute(create_table_sql("HNSW", data.dim, HNSW_PARAMS))
    ids = np.arange(data.rows, dtype=np.uint64)
    log = WriteLog()
    before = probe.sample()
    for lo in range(0, data.rows, sizes.segment_rows):
        hi = min(lo + sizes.segment_rows, data.rows)
        start = perf_counter()
        engine.insert_columns(
            TABLE, {"id": ids[lo:hi], "attr": data.attr[lo:hi]}, data.vectors[lo:hi]
        )
        elapsed = perf_counter() - start
        after = probe.sample()
        log.insert_s.append(elapsed / ((before + after) / 2))
        log.rows += hi - lo
        before = after
    log.slowdown, _ = probe.finish()
    return log


class Workload:
    """Common shape: build, replay rounds, hand over the core engine."""

    name = ""
    why = ""
    recall_floor = 0.0
    # Whether rounds write (ingest_mixed) or only the builds do.
    writes_in_rounds = False

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.data: Optional[Dataset] = None
        self.ops: List[Read] = []
        self.probe = Probe()

    def build(self) -> WriteLog:
        """One full set-up from nothing; replaces any previous engine."""
        raise NotImplementedError

    def round(self, warmup: bool = False) -> RoundLog:
        """Replay the op list once, probing host speed along the way."""
        log = RoundLog()
        start = perf_counter()
        self._play(log, warmup)
        self.probe.sample()
        log.slowdown, probing_s = self.probe.finish()
        log.round_s = perf_counter() - start - probing_s
        return log

    def _play(self, log: RoundLog, warmup: bool) -> None:
        raise NotImplementedError

    def core(self) -> BlendHouse:
        """The engine that owns the table (checkpointed and restarted)."""
        raise NotImplementedError

    def oracle(self) -> Oracle:
        """The oracle in the state the table is in after the last round."""
        return Oracle(self.data)

    # -- shared helpers ------------------------------------------------------
    def _generate(self, n_queries: int) -> Dataset:
        sizes = self.sizes
        return make_dataset(self.seed, sizes.rows, sizes.dim, n_queries)

    def _replay(self, log: RoundLog, reads: List[Read], call: Callable[[Read], Any]) -> None:
        """Closed loop, one client: issue ``reads`` back to back."""
        for number, read in enumerate(reads):
            if number % PROBE_EVERY == 0:
                self.probe.sample()
            start = perf_counter()
            try:
                result = call(read)
            except Exception as exc:  # a failed op is counted, the loop goes on
                _note_failure(read.sql[:60], exc)
                result = None
            elapsed = perf_counter() - start
            log.busy_s += elapsed
            log.add(read, elapsed, result, result.simulated_seconds if result else 0.0)


class AnnDirect(Workload):
    name = "ann_direct"
    why = (
        "index-bound: kNN and hybrid reads via BlendHouse.execute over 8 HNSW segments that "
        "fit every cache; a traversal or merge gain must show here, a front-end gain must not"
    )
    recall_floor = 0.90
    # (class, share, threshold window): at 4,000 rows a 10 % filter is Plan A
    # (s*n below the 1,000-row pre-filter threshold), 20-30 % straddles the
    # A/B/C crossover, 90 % is post-filter.
    MIX = (
        ("pure", 0.4, None),
        ("pass10", 0.2, (900, 1100)),
        ("pass25", 0.2, (2000, 3000)),
        ("pass90", 0.2, (8800, 9200)),
    )

    def build(self) -> WriteLog:
        sizes = self.sizes
        self.data = self._generate(sizes.ann_queries)
        self.db = BlendHouse(ingest_config=IngestConfig(max_segment_rows=sizes.segment_rows))
        log = load_hnsw_table(self.db, self.data, sizes, self.probe)
        if not self.ops:
            self.ops = self._make_ops()
        return log

    def _make_ops(self) -> List[Read]:
        rng = np.random.default_rng(self.seed + 1)
        oracle = Oracle(self.data)
        total = self.sizes.ann_queries
        kinds: List[Tuple[str, Optional[Tuple[int, int]]]] = []
        for kind, share, window in self.MIX:
            kinds += [(kind, window)] * round(total * share)
        order = rng.permutation(len(kinds))
        ops = []
        for slot, pick in enumerate(order):
            kind, window = kinds[pick]
            query = self.data.queries[slot]
            threshold = None if window is None else int(rng.integers(*window))
            ops.append(Read(kind, knn_sql(query, threshold), oracle.truth(query, threshold)))
        return ops

    def _play(self, log: RoundLog, warmup: bool) -> None:
        with _counting(log, self.db):
            self._replay(log, self.ops, lambda read: self.db.execute(read.sql))

    def core(self) -> BlendHouse:
        return self.db


class FilterServed(Workload):
    name = "filter_served"
    why = (
        "front-end-bound, index-bypassing: 0.2-2 % filters (Plan A over tens of rows) via "
        "ServingFrontend.submit, 2 closed-loop clients; parse, plan and the serving loop do "
        "the work, vindex none"
    )
    recall_floor = 1.0  # every plan here is exact
    CLIENTS = 2

    def build(self) -> WriteLog:
        sizes = self.sizes
        self.data = self._generate(sizes.served_queries)
        self.db = BlendHouse(ingest_config=IngestConfig(max_segment_rows=sizes.segment_rows))
        log = load_hnsw_table(self.db, self.data, sizes, self.probe)
        self.frontend = ServingFrontend(self.db)
        if not self.ops:
            self.ops = self._make_ops()
        return log

    def _make_ops(self) -> List[Read]:
        rng = np.random.default_rng(self.seed + 1)
        oracle = Oracle(self.data)
        low, high = ATTR_RANGE // 500, ATTR_RANGE // 50  # 0.2 % .. 2 % pass
        ops = []
        for slot in range(self.sizes.served_queries):
            query = self.data.queries[slot]
            threshold = int(rng.integers(low, high))
            client = slot % self.CLIENTS
            # Every 4th query of a client rides the batch lane (25 %).
            lane = "batch" if (slot // self.CLIENTS) % 4 == 3 else "interactive"
            ops.append(Read(
                "filter", knn_sql(query, threshold), oracle.truth(query, threshold),
                tenant=f"tenant-{client}", lane=lane,
            ))
        return ops

    def _play(self, log: RoundLog, warmup: bool) -> None:
        slots: List[Optional[Tuple[float, Any]]] = [None] * len(self.ops)

        async def client(number: int) -> None:
            session = self.frontend.session(tenant=f"tenant-{number}")
            try:
                for slot in range(number, len(self.ops), self.CLIENTS):
                    read = self.ops[slot]
                    if slot % (4 * PROBE_EVERY) == 0:
                        # The one thread is shared: the other client's query
                        # in flight waits through this 1 ms probe.
                        self.probe.sample()
                    start = perf_counter()
                    reply = await session.submit(read.sql, lane=Lane(read.lane))
                    slots[slot] = (perf_counter() - start, reply)
            finally:
                session.close()

        async def main() -> None:
            await asyncio.gather(*(client(number) for number in range(self.CLIENTS)))

        with _counting(log, self.db):
            start = perf_counter()
            run_virtual(main())
            log.busy_s = perf_counter() - start
        queue_wait = []
        for read, slot in zip(self.ops, slots):
            elapsed, reply = slot if slot is not None else (0.0, None)
            if reply is not None and reply.ok and reply.result is not None:
                log.add(read, elapsed, reply.result, reply.latency_s)
                queue_wait.append(reply.queue_wait_s)
            else:  # refused, timed out, errored, or never reached: a failed op
                status = "not reached" if reply is None else f"{reply.status}: {reply.error}"
                _note_failure(read.sql[:60], RuntimeError(status))
                log.add(read, elapsed)
        log.extra["queue_wait_s"] = queue_wait

    def core(self) -> BlendHouse:
        return self.db


class FleetCold(Workload):
    name = "fleet_cold"
    why = (
        "larger than the program's cache: 2 warehouses x 2 workers whose memory tier holds "
        "half a worker's indexes, scale-out and scale-in each round; cache tiers, "
        "deserialize and routing do the work"
    )
    recall_floor = 0.90
    WAREHOUSES = 2
    WORKERS = 2

    def build(self) -> WriteLog:
        sizes = self.sizes
        self.data = self._generate(3 * sizes.fleet_window)
        # Members join after the load, once the index bytes (and so the
        # memory budget) are known.
        self.db = FleetBlendHouse(
            ingest_config=IngestConfig(max_segment_rows=sizes.segment_rows),
            fleet_config=FleetConfig(warehouses=0, workers_per_warehouse=self.WORKERS),
        )
        log = load_hnsw_table(self.db, self.data, sizes, self.probe)
        index_bytes = [
            index.memory_bytes()
            for index in self.db.table(TABLE).writer.built_indexes.values()
        ]
        # About half of what one worker is assigned, rounded so that the
        # number of indexes that fit does not depend on the seed: with 4
        # segments a worker, two always fit and a third never does.
        per_worker = len(index_bytes) / self.WORKERS
        self.worker_mem_bytes = int((per_worker / 2 + 0.5) * max(index_bytes))
        self.db.fleet.config.warehouse = WarehouseConfig(
            worker_mem_data_bytes=self.worker_mem_bytes
        )
        for _ in range(self.WAREHOUSES):
            self.db.fleet.add_warehouse(masked=False)
        self.db.preload(TABLE)
        if not self.ops:
            oracle = Oracle(self.data)
            self.ops = [
                Read(
                    "pure", knn_sql(query), oracle.truth(query),
                    tenant=f"tenant-{slot % sizes.fleet_tenants}",
                )
                for slot, query in enumerate(self.data.queries)
            ]
        return log

    def _play(self, log: RoundLog, warmup: bool) -> None:
        db, window = self.db, self.sizes.fleet_window
        keys = [route_key(f"tenant-{t}", "interactive") for t in range(self.sizes.fleet_tenants)]

        def query(read: Read) -> Any:
            return db.execute(read.sql, tenant=read.tenant, lane=read.lane)

        def scale(call: Callable[[], Any]) -> Any:
            start = perf_counter()
            result = call()
            log.busy_s += perf_counter() - start
            return result

        with _counting(log, db) as exporter:
            self._replay(log, self.ops[:window], query)  # steady, 2 members
            routes = db.fleet.router.assignment(keys)
            joined = scale(lambda: db.scale_out(masked=True))
            ready_at = db.fleet.pending.get(joined)
            if ready_at is not None:
                # Masked join: the member is admitted once its warm-up has
                # elapsed on the simulated clock; idle to that point.
                db.clock.advance(max(0.0, ready_at - db.clock.now) + 1e-9)
                db.fleet.poll()
            moved = db.fleet.router.moved_keys(keys, routes)
            self._replay(log, self.ops[window : 2 * window], query)  # 3 members
            served_by_joined = exporter.counter(f"fleet.served_by.{joined}")
            scale(lambda: db.scale_in(joined))
            self._replay(log, self.ops[2 * window :], query)  # back to 2
        log.extra["served_by_joined_frac"] = served_by_joined / window
        log.extra["moved_fraction"] = moved / len(keys)
        log.extra["worker_mem_bytes"] = self.worker_mem_bytes

    def core(self) -> BlendHouse:
        return self.db.db


class IngestMixed(Workload):
    name = "ingest_mixed"
    why = (
        "writes beside reads: streamed IVFFLAT inserts with auto-compaction, deletes and "
        "updates, then checkpoint and restarts; read cost, write cost and space trade here "
        "and compaction stalls show"
    )
    recall_floor = 0.80
    writes_in_rounds = True
    DELETE_SHARE = 20  # delete 1/20 = 5 % of each batch
    UPDATE_EVERY = 4
    UPDATE_ROWS = 10

    def __init__(self, seed: int, sizes: Sizes) -> None:
        # It streams its own row count, not the read tables'.
        super().__init__(seed, replace(sizes, rows=sizes.ingest_batches * sizes.ingest_batch_rows))
        self.reads: List[List[Read]] = []  # per batch
        self.final_oracle: Optional[Oracle] = None

    def build(self) -> WriteLog:
        sizes = self.sizes
        self.probe.sample()
        self.data = self._generate(sizes.ingest_batches * sizes.ingest_reads)
        self.db = self._fresh_engine()
        self.probe.sample()
        slowdown, _ = self.probe.finish()
        if not self.reads:
            self._plan_reads()
        return WriteLog(slowdown=slowdown)

    def _fresh_engine(self) -> BlendHouse:
        db = BlendHouse(
            ingest_config=IngestConfig(max_segment_rows=self.sizes.ingest_batch_rows)
        )
        db.execute(create_table_sql("IVFFLAT", self.data.dim))
        db.execute("SET auto_compaction = 1")
        return db

    def _ranges(self, batch: int) -> Tuple[int, int, int, Optional[int]]:
        """(first row, end row, end of the deleted prefix, first updated row)."""
        rows = self.sizes.ingest_batch_rows
        lo = batch * rows
        update_lo = lo + rows // 2 if batch % self.UPDATE_EVERY == self.UPDATE_EVERY - 1 else None
        return lo, lo + rows, lo + rows // self.DELETE_SHARE, update_lo

    def _plan_reads(self) -> None:
        """Dry-run the op list on the oracle alone to fix every read's answer."""
        oracle = Oracle(self.data, visible=0)
        slot = 0
        for batch in range(self.sizes.ingest_batches):
            lo, hi, delete_hi, update_lo = self._ranges(batch)
            oracle.insert(hi - lo)
            reads = []
            for number in range(self.sizes.ingest_reads):
                query = self.data.queries[slot]
                threshold = PASS30 if number % 2 else None
                kind = "pass30" if number % 2 else "pure"
                reads.append(
                    Read(kind, knn_sql(query, threshold), oracle.truth(query, threshold))
                )
                slot += 1
            self.reads.append(reads)
            oracle.delete(lo, delete_hi)
            if update_lo is not None:
                oracle.set_attr(update_lo, update_lo + self.UPDATE_ROWS, batch)
        self.final_oracle = oracle

    def oracle(self) -> Oracle:
        return self.final_oracle

    def _play(self, log: RoundLog, warmup: bool) -> None:
        """One pass over a fresh engine (state grows, so no replay in place)."""
        sizes = self.sizes
        start = perf_counter()
        db = self.db = self._fresh_engine()
        log.busy_s = perf_counter() - start
        batches = sizes.ingest_warmup_batches if warmup else sizes.ingest_batches
        ids = np.arange(self.data.rows, dtype=np.uint64)

        def write(bucket: List[float], call: Callable[[], Any]) -> None:
            before = self.probe.last  # sampled within the last few reads
            begin = perf_counter()
            try:
                call()
            except Exception as exc:
                _note_failure("write", exc)
                log.write_errors += 1
            elapsed = perf_counter() - begin
            log.busy_s += elapsed
            bucket.append(elapsed / ((before + self.probe.sample()) / 2))

        self.probe.sample()
        for batch in range(batches):
            lo, hi, delete_hi, update_lo = self._ranges(batch)
            write(log.writes.insert_s, lambda: db.insert_columns(
                TABLE, {"id": ids[lo:hi], "attr": self.data.attr[lo:hi]},
                self.data.vectors[lo:hi],
            ))
            log.writes.rows += hi - lo
            self._replay(log, self.reads[batch], lambda read: db.execute(read.sql))
            write(log.writes.other_s, lambda: db.execute(
                f"DELETE FROM {TABLE} WHERE id >= {lo} AND id < {delete_hi}"
            ))
            if update_lo is not None:
                write(log.writes.other_s, lambda: db.execute(
                    f"UPDATE {TABLE} SET attr = {batch} "
                    f"WHERE id >= {update_lo} AND id < {update_lo + self.UPDATE_ROWS}"
                ))
        log.counters = _snapshot(db.export_metrics())  # fresh engine: totals are deltas
        levels = db.table(TABLE).manager.segments_by_level()
        deepest = max(levels)
        log.extra["deepest_level_merges"] = len(levels[deepest]) if deepest > 0 else 0

    def core(self) -> BlendHouse:
        return self.db


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (AnnDirect, FilterServed, FleetCold, IngestMixed)
}


# ----------------------------------------------------------------------
# Checking and the restart phase
# ----------------------------------------------------------------------
def judge(workload: Workload, log: RoundLog) -> Tuple[int, List[float], List[Verdict]]:
    """(failed reads, recall of each answered read, the rejections)."""
    oracle = Oracle(workload.data)
    failed, recalls, rejected = 0, [], []
    for read, rows, strategy in zip(log.reads, log.rows, log.strategy):
        if rows is None:
            failed += 1
            continue
        verdict = oracle.check(read.truth, rows, exact=strategy == "brute_force")
        if verdict.ok:
            recalls.append(verdict.recall)
        else:
            failed += 1
            rejected.append(verdict)
    return failed, recalls, rejected


@dataclass
class RestartLog:
    recover_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    store_bytes: int = 0
    slowdown: float = 1.0  # host speed during the restarts (see ledger/probe.py)


def checkpoint_and_restart(workload: Workload) -> RestartLog:
    """CHECKPOINT, then cold-restart ``sizes.restarts`` times.

    Every recovered engine must answer the fixed verification queries
    byte-identically to the engine it replaced; a difference is a failed
    op.
    """
    sizes = workload.sizes
    core = workload.core()
    queries = workload.data.queries[: sizes.verify_queries]
    sqls = [
        knn_sql(query, PASS30 if slot % 2 else None)
        for slot, query in enumerate(queries)
    ]
    log = RestartLog()

    def answers(engine: BlendHouse) -> List[list]:
        return [list(engine.execute(sql).rows) for sql in sqls]

    before = answers(core)
    core.execute("CHECKPOINT")
    log.store_bytes = core.store.total_bytes()
    for _ in range(sizes.restarts):
        gc.collect()  # a full collection landing inside a 5 ms restart would be the whole sample
        workload.probe.sample()
        start = perf_counter()
        core = core.restart()
        log.recover_s.append(perf_counter() - start)
        log.attempted += len(sqls)
        log.failed += identical(before, answers(core))
    workload.probe.sample()
    log.slowdown, _ = workload.probe.finish()
    return log
