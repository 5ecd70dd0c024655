"""MVCC stress tests: concurrent readers vs. ingest/delete/compaction.

The contract under test (ISSUE: tentpole acceptance): a query pins one
manifest and every result it produces is (a) internally consistent —
never a torn view of a half-committed batch — and (b) byte-identical to
a serial ``AS OF <manifest_id>`` rerun against that same manifest, no
matter what ingest, deletes, or compaction committed concurrently.

Layouts are hypothesis-generated so segment shapes, delete patterns, and
compaction points vary across runs; FLAT indexes keep every rerun exact
even after background index retirement.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import BlendHouse
from repro.errors import SnapshotExpiredError
from tests.helpers import vector_sql

DIM = 8
BATCH_ROWS = 30


def make_db(parallel_workers: int = 1) -> BlendHouse:
    db = BlendHouse()
    db.execute(
        "CREATE TABLE t (id UInt64, views UInt64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
    )
    if parallel_workers > 1:
        db.execute(f"SET parallel_workers = {parallel_workers}")
    return db


def batch_rows(batch: int, rng: np.random.Generator):
    base = batch * BATCH_ROWS
    return [
        {
            "id": base + i,
            "views": int(rng.integers(0, 1000)),
            "embedding": rng.normal(size=DIM).astype(np.float32),
        }
        for i in range(BATCH_ROWS)
    ]


def ann_sql(query_vec, as_of=None, k=5) -> str:
    as_of_text = f" AS OF {as_of}" if as_of is not None else ""
    return (
        f"SELECT id, dist FROM t{as_of_text} "
        f"ORDER BY L2Distance(embedding, {vector_sql(query_vec)}) "
        f"AS dist LIMIT {k}"
    )


class TestHistoryLayouts:
    """Hypothesis-generated ingest/delete/compact histories: every
    retained manifest reproduces exactly the row set live when it was
    current."""

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("ingest"), st.integers(5, 40)),
                st.tuples(st.just("delete"), st.integers(1, 4)),
                st.tuples(st.just("compact"), st.just(0)),
            ),
            min_size=2,
            max_size=7,
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_as_of_reproduces_history(self, ops):
        db = BlendHouse()
        db.execute(
            "CREATE TABLE t (id UInt64, embedding Array(Float32), "
            "INDEX ann embedding TYPE FLAT('DIM=4'))"
        )
        runtime = db.table("t")
        rng = np.random.default_rng(7)
        alive: set = set()
        next_id = 0
        history = []  # (manifest_id, frozenset of alive ids)

        for op, arg in ops:
            if op == "ingest":
                rows = [
                    {"id": next_id + i, "embedding": rng.normal(size=4)}
                    for i in range(arg)
                ]
                db.insert_rows("t", rows)
                alive.update(next_id + i for i in range(arg))
                next_id += arg
            elif op == "delete" and alive:
                threshold = sorted(alive)[min(arg, len(alive)) - 1]
                db.execute(f"DELETE FROM t WHERE id <= {threshold}")
                alive = {i for i in alive if i > threshold}
            elif op == "compact":
                db.compact("t")
            history.append((runtime.manager.manifest_id, frozenset(alive)))

        retained = set(runtime.manager.store.retained_ids)
        checked = 0
        for manifest_id, expected in history:
            if manifest_id not in retained:
                continue
            sql = f"SELECT id FROM t AS OF {manifest_id} LIMIT {10 ** 6}"
            result = db.execute(sql)
            assert set(result.column("id")) == expected
            # Historical plans replay deterministically: same manifest,
            # same bytes.
            assert db.execute(sql).rows == result.rows
            checked += 1
        assert checked > 0  # the tail of history is always addressable
        assert runtime.manager.store.pinned_count == 0

    def test_expired_manifest_is_refused_not_wrong(self):
        db = make_db()
        rng = np.random.default_rng(0)
        for batch in range(12):
            db.insert_rows("t", batch_rows(batch, rng)[:5])
        with pytest.raises(SnapshotExpiredError):
            db.execute("SELECT id FROM t AS OF 1 LIMIT 10")


class TestConcurrentReaders:
    """Parallel searches racing ingest + deletes + compact_all."""

    WRITER_BATCHES = 10
    SEARCH_THREADS = 4
    SEARCHES_PER_THREAD = 6

    def test_concurrent_search_matches_serial_as_of(self):
        db = make_db(parallel_workers=8)
        runtime = db.table("t")
        # Keep the whole history addressable: a search is cheap next to a
        # commit, so which manifests the searchers pin is up to the
        # scheduler, and every one of them is verified below.
        runtime.manager.store._retain = 1000
        rng = np.random.default_rng(42)
        for batch in range(3):
            db.insert_rows("t", batch_rows(batch, rng))

        query_vecs = [
            np.random.default_rng(100 + i).normal(size=DIM).astype(np.float32)
            for i in range(self.SEARCH_THREADS)
        ]
        recorded = []  # (sql, rows) per concurrent query
        errors = []
        stop = threading.Event()
        writer_done = threading.Event()
        lock = threading.Lock()

        def searcher(vec) -> None:
            try:
                searches = 0
                # Keep racing until the writer is through: a fixed count
                # can finish before the first commit lands.
                while not stop.is_set() and (
                    searches < self.SEARCHES_PER_THREAD or not writer_done.is_set()
                ):
                    searches += 1
                    # Pin first, then query AS OF the pinned id: the
                    # outer pin keeps the manifest strong so the rerun
                    # below races nothing.
                    with runtime.manager.snapshot() as snap:
                        sql = ann_sql(vec, as_of=snap.manifest_id)
                        first = db.execute(sql)
                        again = db.execute(sql)
                        # Repeatable read while writers commit around us.
                        assert again.rows == first.rows
                        assert again.columns == first.columns
                        # Internal consistency: batches commit atomically
                        # (ingest and whole-batch deletes), so a torn
                        # half-batch would break this invariant.
                        assert snap.alive_rows() % BATCH_ROWS == 0
                        ids = first.column("id")
                        assert len(ids) == len(set(ids))
                        with lock:
                            recorded.append((sql, first.rows))
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)
                stop.set()

        threads = [
            threading.Thread(target=searcher, args=(vec,), daemon=True)
            for vec in query_vecs
        ]
        for thread in threads:
            thread.start()

        # The writer: ingest new batches, delete one whole early batch,
        # and compact — each an atomic manifest swap under the readers.
        deleted_batch = 0
        try:
            for batch in range(3, 3 + self.WRITER_BATCHES):
                if stop.is_set():
                    break
                db.insert_rows("t", batch_rows(batch, rng))
                if batch % 4 == 0:
                    lo = deleted_batch * BATCH_ROWS
                    hi = lo + BATCH_ROWS
                    db.execute(f"DELETE FROM t WHERE id >= {lo} AND id < {hi}")
                    deleted_batch += 1
                if batch % 3 == 0:
                    db.compact("t")
        finally:
            writer_done.set()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "searcher thread hung"
        assert not errors, errors[0]

        # Serial verification: rerunning each query AS OF its pinned
        # manifest — alone, after all writers stopped — must reproduce
        # the concurrent result byte for byte.
        retained = set(runtime.manager.store.retained_ids)
        verified = 0
        for sql, rows in recorded:
            manifest_id = int(sql.split(" AS OF ")[1].split()[0])
            if manifest_id not in retained:
                continue
            assert db.execute(sql).rows == rows
            verified += 1
        assert verified == len(recorded)
        assert len(recorded) >= self.SEARCH_THREADS * self.SEARCHES_PER_THREAD
        assert len({sql for sql, _ in recorded}) > self.SEARCH_THREADS  # > 1 manifest

        # No leaked pins; retirement kept flowing under concurrency.
        assert runtime.manager.store.pinned_count == 0
        assert db.metrics.count("mvcc.commits") > self.WRITER_BATCHES
        assert db.metrics.count("mvcc.pinned_snapshots") == 0

    def test_snapshot_pins_survive_compaction_of_their_segments(self):
        db = make_db()
        runtime = db.table("t")
        rng = np.random.default_rng(1)
        for batch in range(4):
            db.insert_rows("t", batch_rows(batch, rng))
        vec = rng.normal(size=DIM).astype(np.float32)
        with runtime.manager.snapshot() as snap:
            before = db.execute(ann_sql(vec, as_of=snap.manifest_id))
            old_segments = set(snap.segment_ids())
            db.compact("t")
            # Compaction replaced the segment set in the current view...
            assert set(runtime.manager.segment_ids()) != old_segments
            # ...but the pinned manifest still answers identically.
            after = db.execute(ann_sql(vec, as_of=snap.manifest_id))
            assert after.rows == before.rows
        assert runtime.manager.store.pinned_count == 0
