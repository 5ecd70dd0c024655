"""Serving front-end: admission control, lanes, quotas, cancellation.

Everything runs on the virtual-time event loop (``run_virtual``), so
queueing scenarios that would need real saturation are set up by
construction: a slot-holder query parks at a known virtual instant and
later submissions queue, bounce, or preempt deterministically.

The cancellation tests are the serving half of the MVCC leak guard:
``select_stages`` pins a snapshot at creation and must release it no
matter where the consumer stops — generator close, token cancellation,
deadline, or the asyncio task being torn down mid-stage.  Each test
asserts ``pinned_count == 0``, and under ``MVCC_LEAK_CHECK=1`` (the CI
concurrency-stress job) any pin that outlives its query fails the run
at process exit as well.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import BlendHouse
from repro.errors import (
    AdmissionRejectedError,
    QueryCancelledError,
    TenantQuotaExceededError,
)
from repro.executor.cancel import CancelToken
from repro.serving import (
    Lane,
    QueryRequest,
    ServingConfig,
    ServingFrontend,
    run_virtual,
)
from tests.helpers import vector_sql, walk_spans

DIM = 8
ROWS = 90
SEGMENT_ROWS = 30


def make_db(seed: int = 7) -> BlendHouse:
    """Three-segment table so staged execution has mid-query checkpoints."""
    rng = np.random.default_rng(seed)
    db = BlendHouse()
    db.execute(
        "CREATE TABLE t (id UInt64, views UInt64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
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


def ann_sql(seed: int = 3, k: int = 5) -> str:
    query = np.random.default_rng(seed).normal(size=DIM).astype(np.float32)
    return (
        f"SELECT id, dist FROM t ORDER BY "
        f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )


def pinned(db: BlendHouse) -> int:
    return db.table("t").manager.store.pinned_count


def assert_traces_closed(db: BlendHouse) -> None:
    """However a query stopped, its tree is whole: no span left open and
    none left current on the thread that drove it."""
    assert db.tracer.current is None
    for root in db.tracer.roots:
        assert all(span.finished for span in walk_spans(root)), root.name


def make_frontend(db: BlendHouse, **config) -> ServingFrontend:
    return ServingFrontend(db, ServingConfig(**config))


class TestStagedSelect:
    def test_generator_close_releases_pin(self):
        db = make_db()
        gen = db.select_stages(ann_sql())
        next(gen)  # plan
        next(gen)  # scan
        assert pinned(db) == 1
        gen.close()
        assert pinned(db) == 0

    def test_token_cancellation_releases_pin(self):
        db = make_db()
        token = CancelToken()
        gen = db.select_stages(ann_sql(), cancel=token)
        next(gen)
        token.cancel("client gone")
        with pytest.raises(QueryCancelledError):
            for _ in gen:
                pass
        assert pinned(db) == 0


class TestAdmissionControl:
    def test_overload_rejects_beyond_queue_depth(self):
        db = make_db()
        frontend = make_frontend(db, max_inflight=1, max_queue_depth=1)
        sql = ann_sql()

        async def main():
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(frontend.submit(QueryRequest(sql=sql)))
                for _ in range(6)
            ]
            return await asyncio.gather(*tasks)

        replies = run_virtual(main())
        statuses = sorted(reply.status for reply in replies)
        # 1 slot + 1 queue entry serve in turn; the burst of 6 lands on
        # one tick, so exactly the first two are ever admitted.
        assert statuses.count("ok") == 2
        assert statuses.count("rejected_admission") == 4
        assert frontend.running == 0 and frontend.queued == 0
        assert pinned(db) == 0

    def test_rejection_unwraps_to_typed_error(self):
        db = make_db()
        frontend = make_frontend(db, max_inflight=1, max_queue_depth=0)
        sql = ann_sql()

        async def main():
            loop = asyncio.get_running_loop()
            hold = loop.create_task(frontend.submit(QueryRequest(sql=sql)))
            await asyncio.sleep(0)
            bounced = await frontend.submit(QueryRequest(sql=sql))
            await hold
            return bounced

        bounced = run_virtual(main())
        assert bounced.status == "rejected_admission"
        with pytest.raises(AdmissionRejectedError):
            frontend.unwrap(bounced)


class TestPriorityLanes:
    def test_interactive_granted_before_earlier_batch(self):
        db = make_db()
        frontend = make_frontend(db, max_inflight=1, max_queue_depth=8)
        sql = ann_sql()
        order = []

        async def submit(label, lane):
            reply = await frontend.submit(QueryRequest(sql=sql, lane=lane))
            assert reply.ok
            order.append(label)

        async def main():
            loop = asyncio.get_running_loop()
            tasks = [loop.create_task(submit("first", Lane.INTERACTIVE))]
            await asyncio.sleep(0)  # first query takes the only slot
            # Batch queries queue strictly before the interactive ones...
            tasks += [
                loop.create_task(submit(f"batch-{i}", Lane.BATCH))
                for i in range(2)
            ]
            await asyncio.sleep(0)
            tasks += [
                loop.create_task(submit(f"inter-{i}", Lane.INTERACTIVE))
                for i in range(2)
            ]
            await asyncio.gather(*tasks)

        run_virtual(main())
        # ...yet every queued interactive query is granted a slot first.
        assert order == ["first", "inter-0", "inter-1", "batch-0", "batch-1"]
        assert pinned(db) == 0


class TestTenantQuota:
    def test_quota_bounces_second_inflight_query(self):
        db = make_db()
        frontend = make_frontend(db, max_inflight=4, tenant_quota=1)
        sql = ann_sql()

        async def main():
            loop = asyncio.get_running_loop()
            first = loop.create_task(
                frontend.submit(QueryRequest(sql=sql, tenant="a"))
            )
            await asyncio.sleep(0)
            assert frontend.tenant_inflight("a") == 1
            over = await frontend.submit(QueryRequest(sql=sql, tenant="a"))
            other = await frontend.submit(QueryRequest(sql=sql, tenant="b"))
            return await first, over, other

        first, over, other = run_virtual(main())
        assert first.ok and other.ok
        assert over.status == "rejected_quota"
        with pytest.raises(TenantQuotaExceededError):
            frontend.unwrap(over)
        assert frontend.tenant_inflight("a") == 0
        assert pinned(db) == 0

    def test_quota_released_after_completion(self):
        db = make_db()
        frontend = make_frontend(db, max_inflight=2, tenant_quota=1)
        sql = ann_sql()

        async def main():
            # Sequential queries from one tenant all pass: the quota
            # meters in-flight work, not lifetime usage.
            replies = []
            for _ in range(3):
                replies.append(
                    await frontend.submit(QueryRequest(sql=sql, tenant="a"))
                )
            return replies

        assert all(reply.ok for reply in run_virtual(main()))


class TestTimeouts:
    def test_deadline_mid_execution_unwinds_pin(self):
        db = make_db()
        frontend = make_frontend(db, max_inflight=1)
        sql = ann_sql()

        async def main():
            return await frontend.submit(
                QueryRequest(sql=sql, timeout_s=1e-9)
            )

        reply = run_virtual(main())
        assert reply.status == "timeout"
        assert reply.result is None
        assert frontend.running == 0
        assert pinned(db) == 0

    def test_session_close_cancels_inflight(self):
        db = make_db()
        frontend = make_frontend(db, max_inflight=1)
        sql = ann_sql()

        async def main():
            session = frontend.session(tenant="a")
            task = asyncio.get_running_loop().create_task(session.submit(sql))
            await asyncio.sleep(0)
            session.close()
            return await task

        reply = run_virtual(main())
        assert reply.status == "cancelled"
        assert pinned(db) == 0


class TestCancellationNeverLeaksPins:
    """Hypothesis storms: stop a query at an arbitrary point, by any
    mechanism, and the snapshot pin count must return to zero."""

    @given(stop_after=st.integers(0, 8))
    @settings(max_examples=20, deadline=None)
    def test_generator_abandoned_at_any_stage(self, stop_after):
        db = make_db()
        gen = db.select_stages(ann_sql())
        for _ in range(stop_after):
            try:
                next(gen)
            except StopIteration:
                break
        gen.close()
        assert pinned(db) == 0
        assert_traces_closed(db)

    @given(
        cancel_at=st.floats(0.0, 2e-3),
        victims=st.lists(st.integers(0, 7), min_size=1, max_size=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_task_cancel_storm_under_load(self, cancel_at, victims):
        db = make_db()
        frontend = make_frontend(db, max_inflight=2, max_queue_depth=16)
        sql = ann_sql()

        async def main():
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(frontend.submit(QueryRequest(sql=sql)))
                for _ in range(8)
            ]
            await asyncio.sleep(cancel_at)
            for index in victims:
                tasks[index].cancel()
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = run_virtual(main())
        # A cancelled task propagates CancelledError; everything else is
        # a terminal reply. Either way, no slot and no pin survives.
        for item in results:
            if not isinstance(item, asyncio.CancelledError):
                assert item.status in ("ok", "cancelled", "rejected_admission")
        assert frontend.running == 0 and frontend.queued == 0
        assert pinned(db) == 0
        assert_traces_closed(db)
