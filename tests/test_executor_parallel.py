"""Tests for simulated scan lanes and the batched execution engine.

The contract under test: segments are scanned one after another whatever
``parallel_workers`` says, so for any lane count, any index type and any
segment layout the rows and every per-segment cost are those of the
serial run — including distance ties, cold and warm — and a wave's
simulated time is ``lane_makespan`` of those costs, never more than
serial.  Batched (nq > 1) submissions must match issuing the same
queries sequentially.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import ClusteredBlendHouse
from repro.core.database import BlendHouse
from repro.elastic import FleetBlendHouse, FleetConfig
from repro.errors import QueryCancelledError, SQLError
from repro.executor import parallel
from repro.executor.cancel import CancelToken
from repro.executor.parallel import lane_makespan
from repro.executor.pipeline import PartialResult, _merge_partials, execute_segment
from repro.simulate.clock import SimulatedClock


def full_vector_sql(vector) -> str:
    """Full-precision literal so SQL round-trips the exact float32s."""
    return "[" + ",".join(repr(float(x)) for x in vector) + "]"


DIM = 8
INDEX_TYPES = ["FLAT", "IVFFLAT", "HNSW", "DISKANN"]


ENGINES = {
    "core": BlendHouse,
    "clustered": lambda: ClusteredBlendHouse(read_workers=2),
    "fleet": lambda: FleetBlendHouse(
        fleet_config=FleetConfig(warehouses=2, workers_per_warehouse=2)
    ),
}


def build_db(
    index_type: str,
    segments: int = 6,
    rows_per_segment: int = 40,
    workers: int = 1,
    seed: int = 0,
    engine=BlendHouse,
) -> BlendHouse:
    db = engine()
    db.execute(
        f"CREATE TABLE t (id UInt64, tag Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE {index_type}('DIM={DIM}'))"
    )
    db.table("t").writer.config.max_segment_rows = rows_per_segment
    rng = np.random.default_rng(seed)
    n = segments * rows_per_segment
    vectors = rng.standard_normal((n, DIM)).astype(np.float32)
    db.insert_columns(
        "t",
        {"id": np.arange(n, dtype=np.int64), "tag": np.arange(n, dtype=np.int64) % 5},
        vectors,
    )
    if workers > 1:
        db.execute(f"SET parallel_workers = {workers}")
    return db


def run_queries(db: BlendHouse, queries, sql_of) -> list:
    return [
        [tuple(row) for row in db.execute(sql_of(query)).rows] for query in queries
    ]


class TestLaneMakespan:
    def test_one_lane_is_serial_sum(self):
        costs = [3.0, 1.0, 2.0]
        assert lane_makespan(costs, 1) == pytest.approx(6.0)

    def test_enough_lanes_is_max(self):
        costs = [3.0, 1.0, 2.0]
        assert lane_makespan(costs, 3) == pytest.approx(3.0)
        assert lane_makespan(costs, 10) == pytest.approx(3.0)

    def test_lpt_packing(self):
        # LPT on 2 lanes: [4] vs [3, 2] -> makespan 5 (not 4+3=7).
        assert lane_makespan([4.0, 3.0, 2.0], 2) == pytest.approx(5.0)

    def test_empty_and_clamping(self):
        assert lane_makespan([], 4) == 0.0
        assert lane_makespan([1.0], 0) == pytest.approx(1.0)

    def test_never_worse_than_parallel_lower_bound(self):
        rng = np.random.default_rng(3)
        costs = rng.random(17).tolist()
        for lanes in (1, 2, 3, 8, 32):
            span = lane_makespan(costs, lanes)
            assert span >= max(costs) - 1e-12
            assert span <= sum(costs) + 1e-12


def knn_sql(query, k=5) -> str:
    return (
        f"SELECT id FROM t ORDER BY "
        f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT {k}"
    )


def hybrid_sql(query, k=5) -> str:
    return (
        f"SELECT id, tag FROM t WHERE tag < 3 ORDER BY "
        f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT {k}"
    )


def staged_run(db: BlendHouse, sql: str):
    """Drain one staged SELECT the way ``execute`` does.  Returns (rows,
    each ``segment_scan`` span's segment and cost in scan order, each
    wave's ``advance_s``)."""
    wave_advances = []
    for stage in db.select_stages(sql):
        db.clock.advance(stage.advance_s)
        if stage.name in ("scan", "widen"):
            wave_advances.append(stage.advance_s)
    scans = db.tracer.last_root().find("execute").find_all("segment_scan")
    segment_costs = [(span.tags["segment"], span.duration) for span in scans]
    return stage.result.rows, segment_costs, wave_advances


# (index type, rows per segment, statement, the strategy the CBO picks)
LANE_CASES = {
    "flat-knn": ("FLAT", 40, knn_sql, "ann_only"),
    "hnsw-hybrid-postfilter": ("HNSW", 200, hybrid_sql, "post_filter"),
}


class TestScanLoop:
    """The one loop's contract: segments are scanned in task order under
    a capture each, and ``parallel_workers`` only packs the captured
    costs onto simulated cores."""

    def test_results_and_costs_in_task_order_any_lane_count(self):
        query = np.random.default_rng(2).standard_normal(DIM).astype(np.float32)
        for case, (index_type, per_segment, sql_of, strategy) in LANE_CASES.items():
            sql = sql_of(query)
            serial_db = build_db(index_type, segments=8, rows_per_segment=per_segment)
            # Cold, then the second and third repeat of the same statement.
            serial = [staged_run(serial_db, sql) for _ in range(3)]
            plan = serial_db.tracer.last_root().find("plan")
            assert plan.tags["strategy"] == strategy
            assert len(serial[0][1]) == 8
            for workers in (2, 4, 8):
                db = build_db(
                    index_type, segments=8, rows_per_segment=per_segment,
                    workers=workers,
                )
                for repeat, (rows, costs, _) in enumerate(serial):
                    got_rows, got_costs, got_advances = staged_run(db, sql)
                    where = f"{case} workers={workers} repeat={repeat}"
                    assert got_rows == rows, where
                    assert got_costs == costs, where  # bit-equal, in task order
                    assert got_advances == [
                        lane_makespan([cost for _, cost in costs], workers)
                    ], where

    def test_charges_are_captured_not_applied(self):
        query = np.random.default_rng(2).standard_normal(DIM).astype(np.float32)
        db = build_db("FLAT", segments=8, workers=4)
        start = db.clock.now
        list(db.select_stages(knn_sql(query)))  # nobody advances
        assert db.clock.now == start
        scans = db.tracer.last_root().find_all("segment_scan")
        assert sum(span.duration > 0 for span in scans) == 8

    def test_cancel_mid_scan_stops_before_the_next_segment(self, monkeypatch):
        """A token cancelled inside the third segment's scan stops the
        wave before the fourth, in this process and on a warehouse."""
        query = np.random.default_rng(2).standard_normal(DIM).astype(np.float32)
        for engine, make in ENGINES.items():
            db = build_db("FLAT", segments=8, workers=4, engine=make)
            pins = db.table("t").manager.store
            token = CancelToken()
            scanned = []

            def cancel_in_third(plan, segment, *args, **kwargs):
                scanned.append(segment.segment_id)
                if len(scanned) == 3:
                    token.cancel()
                return execute_segment(plan, segment, *args, **kwargs)

            monkeypatch.setattr(parallel, "execute_segment", cancel_in_third)
            db.tracer.reset()
            seen = []
            with pytest.raises(QueryCancelledError):
                for stage in db.select_stages(knn_sql(query), cancel=token):
                    seen.append(stage.name)
            assert len(scanned) == 3, engine
            (root,) = db.tracer.roots
            assert len(root.find_all("segment_scan")) == 3, engine
            assert "scan" not in seen, engine
            assert pins.pinned_count == 0, engine


class TestParallelDeterminism:
    @pytest.mark.parametrize("index_type", INDEX_TYPES)
    def test_identical_results_across_pool_sizes(self, index_type):
        queries = np.random.default_rng(7).standard_normal((4, DIM)).astype(np.float32)

        def sql_of(query):
            return (
                f"SELECT id, dist FROM t ORDER BY "
                f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT 10"
            )

        serial = run_queries(build_db(index_type), queries, sql_of)
        for workers in (2, 8):
            parallel = run_queries(
                build_db(index_type, workers=workers), queries, sql_of
            )
            assert parallel == serial, f"{index_type} diverged at {workers} workers"

    def test_distance_ties_break_identically(self):
        # Duplicate vectors across segments force exact distance ties;
        # the merge's (distance, segment_id, offset) ordering must hold
        # for any pool size.
        base = np.random.default_rng(1).standard_normal((10, DIM)).astype(np.float32)

        def build(workers):
            db = BlendHouse()
            db.execute(
                f"CREATE TABLE t (id UInt64, embedding Array(Float32), "
                f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
            )
            db.table("t").writer.config.max_segment_rows = 10
            vectors = np.tile(base, (6, 1))  # 6 identical segments
            db.insert_columns(
                "t", {"id": np.arange(60, dtype=np.int64)}, vectors
            )
            if workers > 1:
                db.execute(f"SET parallel_workers = {workers}")
            return db

        query = np.zeros(DIM, dtype=np.float32)
        sql = (
            f"SELECT id, dist FROM t ORDER BY "
            f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT 30"
        )
        expected = [tuple(row) for row in build(1).execute(sql).rows]
        for workers in (2, 8):
            got = [tuple(row) for row in build(workers).execute(sql).rows]
            assert got == expected
        # The oracle: segment n holds ids 10n .. 10n + 9 at offsets 0 .. 9,
        # so (distance, segment id, offset) order is (distance, id) order.
        # The ten distinct distances are far apart; rounding only makes
        # the copies' float64 norms tie as the kernel's do.
        norms = np.linalg.norm(np.tile(base, (6, 1)).astype(np.float64), axis=1)
        oracle = sorted(zip(np.round(norms, 5).tolist(), range(60)))[:30]
        assert [row[0] for row in expected] == [i for _, i in oracle]

    @pytest.mark.parametrize("offset, k", [(0, None), (0, 5), (2, 7)])
    def test_merge_breaks_ties_by_segment_id_then_offset(self, offset, k):
        # Partials in reverse segment-id order, with every distance tied
        # across segments: only the explicit (distance, segment id,
        # offset) key can order the rows, not the order partials arrive.
        segments = [SimpleNamespace(segment_id=f"t/seg-{n:08d}") for n in range(3)]
        partials = [
            PartialResult(segment, np.array([4, 1, 2, 7]), np.array([0.5, 0.25, 0.5, 0.25]))
            for segment in reversed(segments)
        ]
        logical = SimpleNamespace(
            is_vector_query=True, distance_range=None, k=k, offset=offset
        )
        merged = _merge_partials(SimpleNamespace(logical=logical), partials)
        oracle = sorted(
            (dist, segment.segment_id, off)
            for segment in segments
            for off, dist in ((4, 0.5), (1, 0.25), (2, 0.5), (7, 0.25))
        )[offset:k]
        assert [(dist, seg.segment_id, off) for seg, off, dist in merged] == oracle
        assert all(
            type(off) is int and type(dist) is float and seg in segments
            for seg, off, dist in merged
        )

    def test_hybrid_predicate_queries_match(self):
        queries = np.random.default_rng(11).standard_normal((3, DIM)).astype(np.float32)

        def sql_of(query):
            return (
                f"SELECT id, tag, dist FROM t WHERE tag < 3 ORDER BY "
                f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT 10"
            )

        serial = run_queries(build_db("HNSW"), queries, sql_of)
        parallel = run_queries(build_db("HNSW", workers=8), queries, sql_of)
        assert parallel == serial

    def test_parallel_simulated_latency_never_worse(self):
        # The hybrid case reads scalar columns through the block cache:
        # the thread fan-out gave every task an empty one on every query,
        # so a *warm* query cost 60 ms at 4 lanes against 0.005 ms at 1.
        query = np.random.default_rng(2).standard_normal(DIM).astype(np.float32)
        for case, (index_type, per_segment, sql_of, _) in LANE_CASES.items():
            sql = sql_of(query)
            latencies = {}
            for workers in (1, 2, 4, 8):
                db = build_db(
                    index_type, segments=8, rows_per_segment=per_segment,
                    workers=workers,
                )
                # Cold, then warm.
                latencies[workers] = [
                    db.execute(sql).simulated_seconds for _ in range(2)
                ]
            cold, warm = latencies[1]
            assert warm < cold, case
            for workers in (2, 4, 8):
                assert latencies[workers][0] <= cold, (case, workers)
                assert latencies[workers][1] <= warm, (case, workers)

    @settings(max_examples=15, deadline=None)
    @given(
        layout=st.lists(st.integers(min_value=5, max_value=40), min_size=1, max_size=6),
        workers=st.sampled_from([2, 3, 8]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_hypothesis_segment_layouts(self, layout, workers, seed):
        """Any segment layout: parallel rows identical to serial rows."""
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((sum(layout), DIM)).astype(np.float32)
        query = rng.standard_normal(DIM).astype(np.float32)
        sql = (
            f"SELECT id, dist FROM t ORDER BY "
            f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT 7"
        )

        def build(parallel_workers):
            db = BlendHouse()
            db.execute(
                f"CREATE TABLE t (id UInt64, embedding Array(Float32), "
                f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
            )
            offset = 0
            for rows in layout:
                db.table("t").writer.config.max_segment_rows = rows
                db.insert_columns(
                    "t",
                    {"id": np.arange(offset, offset + rows, dtype=np.int64)},
                    vectors[offset:offset + rows],
                )
                offset += rows
            if parallel_workers > 1:
                db.execute(f"SET parallel_workers = {parallel_workers}")
            return db

        serial = [tuple(row) for row in build(1).execute(sql).rows]
        parallel = [tuple(row) for row in build(workers).execute(sql).rows]
        assert parallel == serial


class TestParallelWithDeletes:
    def test_deletes_respected_under_concurrency(self):
        """Stress: delete bitmaps mixed with concurrent scans."""
        def build(workers):
            db = build_db("FLAT", segments=8, rows_per_segment=30, workers=workers)
            db.execute("DELETE FROM t WHERE tag = 2")
            db.execute("DELETE FROM t WHERE id < 25")
            return db

        queries = np.random.default_rng(5).standard_normal((5, DIM)).astype(np.float32)

        def sql_of(query):
            return (
                f"SELECT id, tag, dist FROM t ORDER BY "
                f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT 20"
            )

        serial = run_queries(build(1), queries, sql_of)
        for rows in serial:
            for row in rows:
                assert row[1] != 2 and row[0] >= 25
        for workers in (2, 8):
            assert run_queries(build(workers), queries, sql_of) == serial

    def test_interleaved_deletes_and_parallel_queries(self):
        db = build_db("FLAT", segments=6, rows_per_segment=30, workers=8)
        query = np.random.default_rng(9).standard_normal(DIM).astype(np.float32)
        sql = (
            f"SELECT id FROM t ORDER BY "
            f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT 200"
        )
        alive = set(range(180))
        for step in range(4):
            victim_low, victim_high = step * 20, step * 20 + 10
            db.execute(f"DELETE FROM t WHERE id >= {victim_low} AND id < {victim_high}")
            alive -= set(range(victim_low, victim_high))
            ids = {row[0] for row in db.execute(sql).rows}
            assert ids == alive


class TestBatchedExecution:
    @pytest.mark.parametrize("index_type", ["FLAT", "IVFFLAT", "HNSW"])
    def test_search_batch_matches_sequential(self, index_type):
        db = build_db(index_type, segments=5)
        queries = np.random.default_rng(21).standard_normal((6, DIM)).astype(np.float32)
        sequential = run_queries(
            db, queries,
            lambda q: (
                f"SELECT id, dist FROM t ORDER BY "
                f"L2Distance(embedding, {full_vector_sql(q)}) AS dist LIMIT 9"
            ),
        )
        batch = db.search_batch("t", queries, k=9)
        assert len(batch) == len(queries)
        got = [[tuple(row) for row in result.rows] for result in batch.results]
        assert got == sequential

    def test_search_batch_single_query_and_vector_shape(self):
        db = build_db("FLAT", segments=3)
        query = np.random.default_rng(4).standard_normal(DIM).astype(np.float32)
        batch = db.search_batch("t", query, k=5)  # 1-D input
        assert len(batch) == 1
        assert len(batch[0].rows) == 5

    def test_execute_batch_same_shape_sql(self):
        db = build_db("FLAT", segments=4, workers=2)
        queries = np.random.default_rng(31).standard_normal((4, DIM)).astype(np.float32)
        sqls = [
            f"SELECT id, dist FROM t ORDER BY "
            f"L2Distance(embedding, {full_vector_sql(q)}) AS dist LIMIT 6"
            for q in queries
        ]
        sequential = [
            [tuple(row) for row in db.execute(sql).rows] for sql in sqls
        ]
        batched = db.execute_batch(sqls)
        assert [[tuple(r) for r in out.rows] for out in batched] == sequential
        assert db.metrics.count("batch.submissions") == 1

    def test_execute_batch_mixed_statements_fall_back(self):
        db = build_db("FLAT", segments=3)
        query = np.random.default_rng(41).standard_normal(DIM).astype(np.float32)
        sqls = [
            f"SELECT id, dist FROM t ORDER BY "
            f"L2Distance(embedding, {full_vector_sql(query)}) AS dist LIMIT 4",
            "SELECT id FROM t WHERE tag = 1",
        ]
        outs = db.execute_batch(sqls)
        assert len(outs) == 2
        assert len(outs[0].rows) == 4
        assert all(row[0] % 5 == 1 for row in outs[1].rows)
        assert db.metrics.count("batch.fallbacks") == 1
        assert db.metrics.count("batch.submissions") == 0

    def test_batch_respects_deletes(self):
        db = build_db("FLAT", segments=4)
        db.execute("DELETE FROM t WHERE tag = 0")
        queries = np.random.default_rng(51).standard_normal((3, DIM)).astype(np.float32)
        batch = db.search_batch("t", queries, k=50, output_columns=("id", "tag"))
        for result in batch.results:
            assert result.rows
            for row in result.rows:
                assert row[1] != 0

    def test_batch_cheaper_than_sequential(self):
        queries = np.random.default_rng(61).standard_normal((16, DIM)).astype(np.float32)
        sqls = [
            f"SELECT id FROM t ORDER BY "
            f"L2Distance(embedding, {full_vector_sql(q)}) AS dist LIMIT 10"
            for q in queries
        ]

        def timed(db, run):
            start = db.clock.now
            out = run()
            return out, db.clock.now - start

        batch_elapsed = {}
        for workers in (1, 4):
            db = build_db("FLAT", segments=6, rows_per_segment=100, workers=workers)
            db.execute(sqls[0])  # warm caches
            for repeat in range(3):  # the same statements again: warm
                sequential, sequential_s = timed(
                    db, lambda: [db.execute(sql).rows for sql in sqls]
                )
                searched, searched_s = timed(
                    db, lambda: db.search_batch("t", queries, k=10)
                )
                executed, executed_s = timed(db, lambda: db.execute_batch(sqls))
                assert [
                    [row[:1] for row in result.rows] for result in searched.results
                ] == sequential
                assert [result.rows for result in executed] == sequential
                assert searched_s < sequential_s, (workers, repeat)
                assert executed_s < sequential_s, (workers, repeat)
                batch_elapsed[workers, repeat] = (searched_s, executed_s)
        # Lanes never cost a batch more than serial, warm included.
        for repeat in range(3):
            for lanes_s, serial_s in zip(
                batch_elapsed[4, repeat], batch_elapsed[1, repeat]
            ):
                assert lanes_s <= serial_s, repeat

    def test_empty_batch(self):
        db = build_db("FLAT", segments=2)
        assert db.execute_batch([]) == []


class TestClockThreadSafety:
    def test_capture_stacks_are_thread_local(self):
        import threading

        clock = SimulatedClock()
        seen = {}

        def worker(name, amount):
            with clock.capturing() as captured:
                clock.advance(amount)
            seen[name] = captured.total

        threads = [
            threading.Thread(target=worker, args=(f"t{i}", 0.01 * (i + 1)))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == pytest.approx(
            {f"t{i}": 0.01 * (i + 1) for i in range(4)}
        )
        assert clock.now == 0.0


class TestParallelConfig:
    def test_parallel_workers_setting_validation(self):
        db = build_db("FLAT", segments=2)
        db.execute("SET parallel_workers = 4")
        assert db.settings.parallel_workers == 4
        db.execute("SET parallel_workers = 1")
        assert db.settings.parallel_workers == 1
        # Input from outside the program: rejected, not clamped.
        with pytest.raises(SQLError, match="parallel_workers"):
            db.execute("SET parallel_workers = 0")
        with pytest.raises(SQLError, match="parallel_workers"):
            db.settings.apply("parallel_workers", -3)
        assert db.settings.parallel_workers == 1
        # The planes are gone, and so is the option that chose one.
        with pytest.raises(SQLError, match="unknown setting"):
            db.execute("SET executor_mode = 'process'")
