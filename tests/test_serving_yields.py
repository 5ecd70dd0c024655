"""The serving loop awaits only the stages that move time.

``ServingFrontend._run_stages`` used to ``await asyncio.sleep(0)`` after
every zero-advance stage.  The engine no longer yields such stages
(every stage — plan, scan, widen, finish — charges time, unless a wave
scans no segment), and on the virtual-time loop such an await could not
move time anyway: no timer fires until the running query sleeps.  These
tests keep that old loop as the reference and drive one seeded open-loop
storm — admission cap, bounded queue, both lanes, a tenant quota, a
deadline and task cancels — through a front end of each kind: every
request must end the same way at the same virtual instants, and no pin
or open span may be left behind.
Cancellation through the query's ``CancelToken`` must still stop a scan
at the next segment, since the engine checks the token there itself.
"""

import asyncio
import random

import numpy as np
import pytest

import repro.executor.parallel as parallel
from repro.core.database import BlendHouse
from repro.serving import (
    Lane,
    QueryRequest,
    ServingConfig,
    ServingFrontend,
    run_virtual,
)
from tests.helpers import vector_sql, walk_spans

DIM = 8
ROWS = 240
SEGMENT_ROWS = 30
# Steady-state service is ~0.1-0.13 ms on two slots: 20k arrivals a
# second queue up, bounce and, under a 0.105 ms deadline, time out.
ARRIVAL_QPS = 20000.0
TIMEOUT_S = 1.05e-4


class YieldEveryStageFrontend(ServingFrontend):
    """The front end as it was: a zero-advance stage still yields."""

    async def _run_stages(self, request):
        stages = self.db.select_stages(
            request.sql, cancel=request.cancel,
            tenant=request.tenant, lane=request.lane.value,
        )
        try:
            while True:
                self._sync_clock()
                try:
                    stage = next(stages)
                except StopIteration:
                    break
                advance = stage.advance_s * self.config.time_scale
                if advance > 0:
                    await asyncio.sleep(advance)
                else:
                    await asyncio.sleep(0)
        finally:
            stages.close()
            self._sync_clock()
        return stage.result, stage.flight


def make_db(seed: int = 5) -> BlendHouse:
    """Eight segments of HNSW rows."""
    rng = np.random.default_rng(seed)
    db = BlendHouse()
    db.execute(
        "CREATE TABLE t (id UInt64, views UInt64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={DIM}'))"
    )
    db.table("t").writer.config.max_segment_rows = SEGMENT_ROWS
    db.insert_rows(
        "t",
        [
            {
                "id": i,
                "views": int(rng.integers(0, 1000)),
                "embedding": rng.normal(size=DIM).astype(np.float32),
            }
            for i in range(ROWS)
        ],
    )
    return db


def storm_sqls(seed: int = 9):
    """Selective hybrid reads (Plan A), wider ones and pure kNN."""
    rng = np.random.default_rng(seed)
    sqls = []
    for where in ("WHERE views < 20 ", "WHERE views < 300 ", ""):
        for _ in range(3):
            query = rng.normal(size=DIM).astype(np.float32)
            sqls.append(
                f"SELECT id, dist FROM t {where}ORDER BY "
                f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 5"
            )
    return sqls


def pinned(db: BlendHouse) -> int:
    return db.table("t").manager.store.pinned_count


def assert_traces_closed(db: BlendHouse) -> None:
    assert db.tracer.current is None
    for root in db.tracer.roots:
        assert all(span.finished for span in walk_spans(root)), root.name


def run_storm(frontend_class, seed: int, arrivals: int = 60):
    """One seeded open-loop storm; the per-request outcomes in arrival
    order, and the engine it ran on."""
    db = make_db()
    sqls = storm_sqls()
    for sql in sqls:  # warm the column cache: storm costs are steady-state
        db.execute(sql)
    frontend = frontend_class(db, ServingConfig(
        max_inflight=2, max_queue_depth=3, tenant_quota=3,
    ))
    rng = random.Random(seed)

    async def main():
        loop = asyncio.get_running_loop()
        tasks = []
        for arrival in range(arrivals):
            request = QueryRequest(
                sql=sqls[rng.randrange(len(sqls))],
                tenant=f"tenant-{rng.randrange(3)}",
                lane=Lane.BATCH if rng.random() < 0.3 else Lane.INTERACTIVE,
                timeout_s=TIMEOUT_S if arrival % 5 == 0 else None,
            )
            tasks.append(loop.create_task(frontend.submit(request)))
            if arrival % 7 == 3:
                # Cancel an earlier, possibly running, request.
                tasks[rng.randrange(len(tasks))].cancel()
            await asyncio.sleep(rng.expovariate(ARRIVAL_QPS))
        return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = []
    for item in run_virtual(main()):
        if isinstance(item, asyncio.CancelledError):
            outcomes.append(("task_cancelled",))
            continue
        rows = item.result.rows if item.result is not None else None
        outcomes.append(
            (item.status, item.latency_s, item.queue_wait_s, item.service_s, rows)
        )
    assert frontend.running == 0 and frontend.queued == 0
    return outcomes, db


class TestYieldOnlyWhenTimeMoves:
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_storm_outcomes_equal_the_yield_every_stage_loop(self, seed):
        reference, reference_db = run_storm(YieldEveryStageFrontend, seed)
        outcomes, db = run_storm(ServingFrontend, seed)
        assert outcomes == reference
        statuses = {outcome[0] for outcome in outcomes}
        # The storm reaches every way a request can end.
        assert statuses == {"ok", "timeout", "task_cancelled",
                            "rejected_admission", "rejected_quota"}
        for engine in (reference_db, db):
            assert pinned(engine) == 0
            assert_traces_closed(engine)

    def test_serving_counters_equal_the_yield_every_stage_loop(self):
        _, reference_db = run_storm(YieldEveryStageFrontend, seed=1)
        _, db = run_storm(ServingFrontend, seed=1)
        for name in ("serving.completed", "serving.timeouts", "serving.cancelled",
                     "serving.rejected_admission", "serving.rejected_quota",
                     "queries", "plan_cache.hits", "plan_cache.misses"):
            assert db.metrics.count(name) == reference_db.metrics.count(name), name
        assert db.clock.now == reference_db.clock.now


class TestTokenStopsScanAtNextSegment:
    def test_token_set_during_a_segment_scan(self, monkeypatch):
        db = make_db()
        frontend = ServingFrontend(db, ServingConfig(max_inflight=1))
        sql = storm_sqls()[0]  # Plan A over five segments
        assert db.execute(sql).segments_scanned > 2
        request = QueryRequest(sql=sql)
        scanned = []
        execute_segment = parallel.execute_segment

        def scan_then_cancel(plan, segment, bitmap, ctx):
            scanned.append(segment.segment_id)
            if len(scanned) == 2:
                request.cancel.cancel("client gone mid-scan")
            return execute_segment(plan, segment, bitmap, ctx)

        monkeypatch.setattr(parallel, "execute_segment", scan_then_cancel)

        async def main():
            return await frontend.submit(request)

        reply = run_virtual(main())
        assert reply.status == "cancelled"
        # The segment the token was set in completes; the next one never
        # starts.
        assert len(scanned) == 2
        assert frontend.running == 0
        assert pinned(db) == 0
        assert_traces_closed(db)
