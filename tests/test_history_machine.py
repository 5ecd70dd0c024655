"""An outside judge: random write/read histories against a numpy model.

One ``hypothesis.stateful`` machine drives an engine — a
``BlendHouse``, a ``ClusteredBlendHouse`` of two workers or a
``FleetBlendHouse`` of two warehouses of two — with one table under a
FLAT, an HNSW or an IVFFLAT index (the one type here whose Plan C runs
the generic restart iterator), built at ingest, or under no vector index
at all, through inserts (some rows repeating a vector already in the
table), deletes, updates, compactions, checkpoints, drops of the table
followed by the same CREATE and fresh rows, a snapshot of ``t`` held
across any of these and released later, restarts (a cold engine of the
same class over the same object store), kNN and hybrid SELECTs under
every ``forced_strategy``, batches of kNN SELECTs as one
``execute_batch``, hybrid SELECTs served through a ``ServingFrontend``,
and staged SELECTs abandoned after a few stages.  Beside it runs an
out-of-engine model of the logical table, in the shape of
``ledger/oracle.py``: the live rows as numpy arrays, and every answer
judged against brute force over them.

* Every answer: at most ``LIMIT`` rows, no repeated id, only live rows
  that pass the filter, each with its true distance, in ascending order.
* Where the search is exhaustive — a FLAT index, no index, or Plan A
  (brute force) — the answer's distances are exactly the true top-k
  distances (ties may pick either row).
* Elsewhere, recall@k over the history's answers is at least
  ``RECALL_FLOOR``.  An HNSW search is judged here even when ``ef``
  covers every stored row: over repeated vectors some rows are not
  reachable from the entry point at any ``ef``.
* Between steps the observe plane is at rest: the slow-query log was
  offered exactly the SELECTs run since the engine started, every
  snapshot pin event but a held snapshot's has its unpin, and no span
  is open.
* A restart loses no acknowledged write: the live rows, the model and
  every check above carry over to the engine ``restart`` returns.
* After a checkpoint the object store holds the payloads of exactly the
  live and held segments.

Vectors have coordinates in {-1, 0, 1}, so SQL literals round-trip
exactly and distance ties are common.  Inserted rows come from a seeded
generator, so a history is a handful of integers, and the histories
tried are a pure function of hypothesis's seed (``derandomize``): a
failure shrinks to a short history and replays as printed.
"""

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.cluster.engine import ClusteredBlendHouse
from repro.core.database import BlendHouse
from repro.elastic import FleetBlendHouse, FleetConfig
from repro.planner.optimizer import ExecutionStrategy
from repro.serving import QueryRequest, ServingFrontend, run_virtual
from tests.helpers import payload_ids, vector_sql, walk_spans

DIM = 4
# Plan C pulls 32-row batches from each segment's iterator: segments
# this large make it restart its search and cross tie groups.
SEGMENT_ROWS = 96
STRATEGIES = ("auto", "brute_force", "pre_filter", "post_filter")
RECALL_FLOOR = 0.5
EXHAUSTIVE = ("FLAT", None)  # the indexes whose every search is exact
RECALL_SAMPLE = 20  # true neighbours asked for before the floor applies

vectors = st.lists(st.integers(-1, 1), min_size=DIM, max_size=DIM)
seeds = st.integers(0, 2**16)
# LIMIT 10 under a 10 % filter (attr < 1) makes Plan C restart its
# segment searches past the first batch.
limits = st.sampled_from([1, 10])
ENGINES = {
    "core": BlendHouse,
    "clustered": lambda: ClusteredBlendHouse(read_workers=2),
    "fleet": lambda: FleetBlendHouse(
        fleet_config=FleetConfig(warehouses=2, workers_per_warehouse=2)
    ),
}


class HistoryMachine(RuleBasedStateMachine):
    """The engine and its model, moved in lockstep."""

    @initialize(index=st.sampled_from(["FLAT", "HNSW", None, "IVFFLAT"]),
                count=st.integers(60, 150), seed=seeds,
                engine=st.sampled_from(list(ENGINES)))
    def create(self, index, count, seed, engine):
        self.index = index
        self.db = ENGINES[engine]()
        options = f"'DIM={DIM}'" + (", 'M=4, ef_construction=16'" if index == "HNSW" else "")
        declared = "" if index is None else f", INDEX ann embedding TYPE {index}({options})"
        self.ddl = f"CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32){declared})"
        self.next_id = 0
        self.hits = self.wanted = 0  # recall@k over the non-exhaustive answers
        self.selects = 0  # SELECTs run, each offered once to the slow-query log
        self.held = None  # the snapshot ``hold`` pinned, until ``release``
        self.fill(count, seed)

    def fill(self, count, seed):
        """Create ``t`` and insert its first rows into an empty model."""
        self.db.execute(self.ddl)
        self.db.table("t").writer.config.max_segment_rows = SEGMENT_ROWS
        # The model: one entry per live id.
        self.rows = {}  # id -> (vector float32[DIM], attr)
        self.insert(count, seed)

    # -- writes ---------------------------------------------------------------
    @rule(count=st.integers(1, 100), seed=seeds)
    def insert(self, count, seed):
        """``count`` rows from a seeded generator; about half of them
        repeat a vector already in the table."""
        rng = np.random.default_rng(seed)
        batch = rng.integers(-1, 2, size=(count, DIM)).astype(np.float32)
        attrs = rng.integers(0, 10, size=count)
        if self.rows:
            live = np.stack([vector for vector, _ in self.rows.values()])
            repeat = np.flatnonzero(rng.random(count) < 0.5)
            batch[repeat] = live[rng.integers(0, len(live), repeat.size)]
        ids = np.arange(self.next_id, self.next_id + count, dtype=np.uint64)
        self.db.insert_columns("t", {"id": ids, "attr": attrs.astype(np.int64)}, batch)
        for row_id, vector, attr in zip(ids.tolist(), batch, attrs.tolist()):
            self.rows[row_id] = (vector, attr)
        self.next_id += count

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def delete(self, data):
        victim = data.draw(st.sampled_from(sorted(self.rows)), label="victim")
        self.db.execute(f"DELETE FROM t WHERE id = {victim}")
        del self.rows[victim]

    @precondition(lambda self: self.rows)
    @rule(data=st.data(), attr=st.integers(0, 9), vector=st.none() | vectors)
    def update(self, data, attr, vector):
        target = data.draw(st.sampled_from(sorted(self.rows)), label="target")
        assignments = f"attr = {attr}"
        new_vector = self.rows[target][0]
        if vector is not None:
            new_vector = np.array(vector, dtype=np.float32)
            assignments += f", embedding = {vector_sql(new_vector)}"
        self.db.execute(f"UPDATE t SET {assignments} WHERE id = {target}")
        self.rows[target] = (new_vector, attr)

    @rule()
    def compact(self):
        self.db.compact("t")

    @rule(count=st.integers(1, 150), seed=seeds)
    def recreate(self, count, seed):
        """DROP TABLE, then the same CREATE and fresh rows.  The new
        table's segment ids continue past the dropped one's, so what the
        drop retires — now, or when a held snapshot is released — names
        none of the new table's payloads."""
        self.db.execute("DROP TABLE t")
        self.fill(count, seed)

    @precondition(lambda self: self.held is None)
    @rule()
    def hold(self):
        """Pin the current snapshot of ``t``, as a long-running reader
        would: the segments it holds outlive compaction and DROP TABLE
        until ``release``."""
        self.held = self.db.table("t").manager.snapshot()
        self.held_manager = self.db.table("t").manager

    @precondition(lambda self: self.held is not None)
    @rule()
    def release(self):
        """Release the held snapshot: the segments only it kept retire."""
        self.held.release()
        self.held = None

    @rule()
    def checkpoint(self):
        """A checkpoint deletes every payload no live manifest holds: the
        store keeps exactly the segments of ``t``'s current manifest and
        of the held snapshot, unless a drop has retired the latter."""
        self.db.execute("CHECKPOINT")
        manager = self.db.table("t").manager
        held = set(manager.segment_ids())
        if self.held is not None and self.held_manager is manager:
            held |= set(self.held.segment_ids())
        assert payload_ids(self.db.store) == held

    @rule()
    def restart(self):
        """Every acknowledged write survives a clean restart; the new
        engine's slow-query log has been offered nothing yet."""
        if self.held is not None:
            self.release()
        engine_class = type(self.db)
        self.db = self.db.restart()
        assert type(self.db) is engine_class
        self.selects = 0

    # -- reads ----------------------------------------------------------------
    @rule(query=vectors, k=limits, ef=st.sampled_from([4, 16, 256]))
    def knn(self, query, k, ef):
        self.select(query, k, ef, "auto", None)

    @rule(
        query=vectors,
        k=limits,
        ef=st.sampled_from([4, 16, 256]),
        threshold=st.sampled_from([1, 5, 10]),
    )
    def hybrid(self, query, k, ef, threshold):
        """One filtered query under every strategy."""
        for strategy in STRATEGIES:
            self.select(query, k, ef, strategy, threshold)

    @rule(queries=st.lists(vectors, min_size=1, max_size=4), k=limits,
          ef=st.sampled_from([4, 16, 256]))
    def knn_batch(self, queries, k, ef):
        """Same-shape kNN statements as one ``execute_batch``."""
        queries = [np.array(query, dtype=np.float32) for query in queries]
        self.db.execute("SET forced_strategy = auto")
        self.db.execute(f"SET ef_search = {ef}")
        results = self.db.execute_batch([
            f"SELECT id, dist FROM t ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
            for query in queries
        ])
        self.selects += len(queries)
        for query, result in zip(queries, results):
            self.judge(result.rows, query, k, None, self.index in EXHAUSTIVE)

    @rule(query=vectors, k=limits, ef=st.sampled_from([4, 16, 256]),
          threshold=st.sampled_from([1, 5, 10]), strategy=st.sampled_from(STRATEGIES))
    def served(self, query, k, ef, threshold, strategy):
        """One hybrid SELECT through the serving front end, which drives
        the staged generator on the virtual-time loop."""
        self.select(query, k, ef, strategy, threshold, served=True)

    @rule(query=vectors, steps=st.integers(0, 2))
    def abandoned(self, query, steps):
        """A staged SELECT stepped ``steps`` times, then closed: the
        invariants see its pin released and its spans finished."""
        stages = self.db.select_stages(
            f"SELECT id, dist FROM t WHERE attr < 5 ORDER BY "
            f"L2Distance(embedding, {vector_sql(np.array(query, dtype=np.float32))}) "
            f"AS dist LIMIT 10"
        )
        for _ in range(steps):
            next(stages)
        stages.close()

    def select(self, query, k, ef, strategy, threshold, served=False):
        query = np.array(query, dtype=np.float32)
        self.db.execute(f"SET forced_strategy = {strategy}")
        self.db.execute(f"SET ef_search = {ef}")
        where = "" if threshold is None else f"WHERE attr < {threshold} "
        sql = (
            f"SELECT id, dist FROM t {where}ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
        )
        if served:
            frontend = ServingFrontend(self.db)
            result = frontend.unwrap(run_virtual(frontend.submit(QueryRequest(sql=sql))))
        else:
            result = self.db.execute(sql)
        self.selects += 1  # the front end offers its reply to the log too
        exhaustive = (
            self.index in EXHAUSTIVE or result.strategy is ExecutionStrategy.BRUTE_FORCE
        )
        self.judge(result.rows, query, k, threshold, exhaustive)

    def judge(self, rows, query, k, threshold, exhaustive):
        ids = [int(row[0]) for row in rows]
        got = np.array([float(row[1]) for row in rows])
        allowed = {
            row_id: float(np.linalg.norm(vector.astype(np.float64) - query))
            for row_id, (vector, attr) in self.rows.items()
            if threshold is None or attr < threshold
        }
        truth = np.sort(np.array(list(allowed.values())))[:k]
        assert len(ids) <= k, f"{len(ids)} rows for LIMIT {k}"
        assert len(set(ids)) == len(ids), f"repeated id in {ids}"
        assert all(row_id in allowed for row_id in ids), (
            f"{ids} holds a deleted, filtered-out or unknown row"
        )
        true = np.array([allowed[row_id] for row_id in ids])
        np.testing.assert_allclose(got, true, rtol=1e-5, atol=1e-5)
        assert np.all(np.diff(got) >= 0), f"distances decrease: {got}"
        if exhaustive:
            assert len(ids) == len(truth), f"{len(ids)} rows, {len(truth)} qualify"
            np.testing.assert_allclose(true, truth, rtol=1e-6, atol=1e-6)
        elif len(truth):
            self.hits += int(np.sum(true <= truth[-1] * (1 + 1e-6) + 1e-6))
            self.wanted += len(truth)

    @invariant()
    def row_count(self):
        assert self.db.describe("t")["rows_alive"] == len(self.rows)

    @invariant()
    def observe_plane_at_rest(self):
        """Every SELECT was offered to the flight recorder once, every
        snapshot pin but the held one was released, and no span is left
        open."""
        assert self.db.slowlog.seen == self.selects
        events = self.db.events
        held = int(self.held is not None)
        assert events.count("snapshot.pin") == events.count("snapshot.unpin") + held
        assert self.db.tracer.current is None
        assert all(span.finished for root in self.db.tracer.roots for span in walk_spans(root))

    def teardown(self):
        if getattr(self, "held", None) is not None:
            self.release()  # a history may end while it holds a snapshot
        # Recall is a property of many answers, not of one.
        if self.wanted >= RECALL_SAMPLE:
            recall = self.hits / self.wanted
            assert recall >= RECALL_FLOOR, f"recall {recall:.2f} below {RECALL_FLOOR}"


HistoryMachine.TestCase.settings = settings(
    max_examples=200,
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestHistoryMachine = HistoryMachine.TestCase
