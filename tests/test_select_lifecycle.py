"""One SELECT lifecycle: every engine and entry point runs the same stages.

``BlendHouse.select_stages`` is the single implementation of a SELECT;
``execute`` and ``EXPLAIN ANALYZE`` drain it, and the clustered and fleet
engines only swap the scan backend (``_backend``).  So for every engine
x entry point x table the rows, the ``simulated_seconds`` definition,
the clock advance and the accounting
(``queries``, ``query.latency``, widening, slow-query log, snapshot pin)
must agree — the staged-vs-direct checks that used to live one per suite
are this module's inputs.  So must the trace: one ``query`` tree per
query, the same spans on every path, both clocks on every span, and
stage costs that are span durations.

A batch — ``search_batch`` of a query matrix, ``execute_batch`` of
same-shape statements — is a *group* through that same lifecycle, on
the same backend as the engine's SELECTs, so on every engine it is held
to the same rows, accounting, warehouse, cache tiers, single ``query``
tree and leak checks, plus what only a group can get wrong: one pin
honouring ``AS OF``, and a widen wave that scans the reserve segments
only.
"""

import re

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.core.database import BlendHouse
from repro.elastic import FleetBlendHouse, FleetConfig
from repro.errors import QueryCancelledError, WorkerUnavailableError
from repro.executor import parallel
from repro.executor.cancel import CancelToken
from repro.workloads import make_cohere_like
from tests.helpers import vector_sql, walk_spans as walk

DIM = 16


def _core(**settings):
    db = BlendHouse()
    for name, value in settings.items():
        db.execute(f"SET {name} = {value}")
    return db


ENGINES = {
    "core-serial": _core,
    "core-parallel4": lambda: _core(parallel_workers=4),
    "clustered": lambda: ClusteredBlendHouse(read_workers=2),
    "fleet-2x2": lambda: FleetBlendHouse(
        fleet_config=FleetConfig(warehouses=2, workers_per_warehouse=2)
    ),
}


def load_hybrid(engine) -> str:
    """8 HNSW segments; a filtered kNN that scans all of them."""
    ds = make_cohere_like(n=400, dim=DIM, n_queries=1)
    engine.execute(
        "CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={DIM}'))"
    )
    engine.table("t").writer.config.max_segment_rows = 50
    engine.insert_columns(
        "t", {"id": ds.scalars["id"], "attr": ds.scalars["attr"]}, ds.vectors
    )
    assert len(engine.table("t").manager) == 8
    threshold = int(np.median(ds.scalars["attr"]))
    return (
        f"SELECT id, dist FROM t WHERE attr < {threshold} ORDER BY "
        f"L2Distance(embedding, {vector_sql(ds.queries[0])}) AS dist LIMIT 10"
    )


def load_widening(engine) -> str:
    """6 semantic buckets, one kept, k larger than a bucket: widening fires."""
    ds = make_cohere_like(n=600, dim=DIM, n_queries=1)
    engine.execute(
        "CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={DIM}')) "
        "CLUSTER BY embedding INTO 6 BUCKETS"
    )
    engine.insert_columns(
        "t", {"id": ds.scalars["id"], "attr": ds.scalars["attr"]}, ds.vectors
    )
    engine.execute("SET semantic_prune_keep = 1")
    segments = engine.table("t").manager.segments()
    k = min(segment.row_count for segment in segments) + 50
    return (
        f"SELECT id, dist FROM t ORDER BY "
        f"L2Distance(embedding, {vector_sql(ds.queries[0])}) AS dist LIMIT {k}"
    )


TABLES = {"hybrid": load_hybrid, "widening": load_widening}


def build(engine_name: str, table: str):
    engine = ENGINES[engine_name]()
    sql = TABLES[table](engine)
    if hasattr(engine, "preload"):
        engine.preload("t")
    engine.execute(sql)  # warm the plan cache and every index cache tier
    return engine, sql


def run_execute(engine, sql):
    return engine.execute(sql), None


def run_explain(engine, sql):
    return engine.execute(f"EXPLAIN ANALYZE {sql}").result, None


def run_stages(engine, sql):
    """Drain the generator the way ``execute`` does: advance the clock."""
    stages = []
    for stage in engine.select_stages(sql):
        engine.clock.advance(stage.advance_s)
        stages.append(stage)
    return stages[-1].result, stages


def accounted(engine, sql, run):
    """Run once; returns (result, stages, clock advance, counter deltas),
    the deltas including the span trees the run retained."""
    metrics = engine.metrics
    engine.tracer.reset()
    names = ("queries", "pruning.widenings", "warehouse.queries")
    before = {name: metrics.count(name) for name in names}
    samples = len(metrics.latency("query.latency").values)
    start = engine.clock.now
    result, stages = run(engine, sql)
    advance = engine.clock.now - start
    delta = {name: metrics.count(name) - before[name] for name in names}
    delta["latency_samples"] = len(metrics.latency("query.latency").values) - samples
    delta["roots"] = engine.tracer.roots
    return result, stages, advance, delta


def shape(span):
    """The tree without its clocks: names, tags, children."""
    return (span.name, span.tags, [shape(child) for child in span.children])


def wave_scan_costs(execute):
    """Summed ``segment_scan`` durations of each wave under ``execute``
    (a wave ends at its ``merge_project``)."""
    waves, cost = [], 0.0
    for child in execute.children:
        if child.name == "merge_project":
            waves.append(cost)
            cost = 0.0
        else:
            cost += sum(scan.duration for scan in child.find_all("segment_scan"))
    return waves


SPAN_NAMES = {
    "query", "parse", "plan", "prune", "execute", "segment_scan",
    "index_resolve", "merge_project",
}


def check_query_tree(engine_name, roots, result, widened):
    """One finished ``query`` tree with the lifecycle's spans on it."""
    assert [root.name for root in roots] == ["query"]
    root = roots[0]
    names = {span.name for span in walk(root)}
    grouping = set() if engine_name.startswith("core") else {"worker_scan"}
    assert names - {"delete_bitmap.filter"} == SPAN_NAMES | grouping
    for span in walk(root):
        assert span.finished and span.wall_s > 0, span.name
    assert [child.name for child in root.children] == [
        "parse", "plan", "prune", "execute"
    ]
    execute = root.find("execute")
    assert execute.duration == pytest.approx(result.simulated_seconds, rel=1e-9)
    assert execute.tags.get("adaptive_widened", False) == bool(widened)
    assert len(execute.find_all("segment_scan")) == result.segments_scanned
    assert len(execute.find_all("merge_project")) == 1 + widened
    for scan in execute.find_all("segment_scan"):
        assert scan.duration > 0
        assert scan.find("index_resolve").tags["tier"]
    return root


_reference_rows = {}


def reference_rows(table: str):
    if table not in _reference_rows:
        engine, sql = build("core-serial", table)
        _reference_rows[table] = engine.execute(sql).rows
    return _reference_rows[table]


@pytest.mark.parametrize("table", list(TABLES))
@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_every_engine_and_entry_point_agree(engine_name, table):
    engine, sql = build(engine_name, table)
    pins = engine.table("t").manager.store
    widened = 1 if table == "widening" else 0
    waves = 0 if engine_name.startswith("core") else 1 + widened

    direct, _, direct_advance, direct_delta = accounted(engine, sql, run_execute)
    staged, stages, staged_advance, staged_delta = accounted(engine, sql, run_stages)
    explained, _, _, explain_delta = accounted(engine, sql, run_explain)

    assert direct.rows == staged.rows == reference_rows(table)
    # Captured sums on both sides; clock differences lose the last bits.
    assert staged.simulated_seconds == pytest.approx(
        direct.simulated_seconds, rel=1e-12
    )
    assert direct.simulated_seconds > 0
    assert staged_advance == pytest.approx(direct_advance, rel=1e-6)
    # The plan stage is part of the clock advance, not of simulated_seconds.
    assert direct_advance > direct.simulated_seconds
    trees = [
        check_query_tree(engine_name, delta.pop("roots"), result, widened)
        for delta, result in ((direct_delta, direct), (staged_delta, staged))
    ]
    # A served tree equals a direct tree, down to every simulated second.
    assert shape(trees[0]) == shape(trees[1])
    for one, other in zip(*map(walk, trees)):
        assert one.duration == pytest.approx(other.duration, rel=1e-9, abs=1e-15)
    # Stage costs are span durations.
    root = trees[1]
    by_name = {stage.name: stage for stage in stages}
    assert by_name["plan"].cost_s == pytest.approx(
        root.find("plan").duration + root.find("prune").duration, rel=1e-12
    )
    assert [
        stage.cost_s for stage in stages if stage.name in ("scan", "widen")
    ] == pytest.approx(wave_scan_costs(root.find("execute")), rel=1e-12)
    assert by_name["finish"].cost_s == pytest.approx(
        sum(span.duration for span in root.find_all("merge_project")), rel=1e-12
    )
    for tree in trees:
        assert tree.duration == pytest.approx(
            sum(child.duration for child in tree.children), abs=1e-12
        )
    assert stages[-1].flight["trace"] is root

    for delta in (direct_delta, staged_delta):
        assert delta["queries"] == 1
        assert delta["latency_samples"] == 1
        assert delta["pruning.widenings"] == widened
        # One warehouse query per scanned wave, none in-process.
        assert delta["warehouse.queries"] == waves
    assert direct_delta == staged_delta
    assert pins.pinned_count == 0

    # EXPLAIN ANALYZE runs the SELECT where the SELECT runs: the same
    # rows and cost, the same warehouse, the same scans at the same tiers.
    # (Only its plan stage may differ: the EXPLAIN is another shape.)
    assert explained.rows == direct.rows
    assert explained.simulated_seconds == pytest.approx(
        direct.simulated_seconds, rel=1e-12
    )
    explain_tree = check_query_tree(
        engine_name, explain_delta.pop("roots"), explained, widened
    )
    assert explain_delta == direct_delta
    assert explain_tree.tags.get("warehouse") == trees[0].tags.get("warehouse")
    assert shape(explain_tree.find("execute")) == shape(trees[0].find("execute"))

    names = [stage.name for stage in stages]
    assert names[:2] == ["pin", "plan"] and names[-1] == "finish"
    assert ("widen" in names) == bool(widened)
    scanned = sum(name.startswith("segment:") for name in names)
    assert scanned == staged.segments_scanned
    warehouse = stages[-1].flight["warehouse"]
    if engine_name.startswith("fleet"):
        assert warehouse in engine.fleet.warehouse_names
    elif engine_name.startswith("clustered"):
        assert warehouse == engine.read_vw.name
    else:
        assert warehouse is None

    # Abandoning the generator after any number of stages releases the pin
    # and closes the query's tree: nothing left open, nothing left current.
    for stop in range(len(names) + 1):
        engine.tracer.reset()
        gen = engine.select_stages(sql)
        for _ in range(stop):
            next(gen)
            assert engine.tracer.current is None
        assert pins.pinned_count == (1 if stop else 0)
        gen.close()
        assert pins.pinned_count == 0
        assert engine.tracer.current is None
        assert [root.name for root in engine.tracer.roots] == ["query"] * bool(stop)
        assert all(span.finished for root in engine.tracer.roots for span in walk(root))


@pytest.mark.parametrize("entry", [run_execute, run_stages], ids=["execute", "stages"])
@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_read_opt_off_reaches_every_engine_and_entry(engine_name, entry):
    """``SET read_opt = 0`` (Fig 17's baseline) holds whichever backend
    scans: the same rows, and every column fetch a full-block read."""
    engine, sql = build(engine_name, "hybrid")
    engine.execute("SET read_opt = 0")
    metrics = engine.metrics
    names = ("columnio.block_reads", "columnio.ranged_reads")
    before = [metrics.count(name) for name in names]
    result, _ = entry(engine, sql)
    assert result.rows == reference_rows("hybrid")
    block_reads, ranged_reads = (
        metrics.count(name) - count for name, count in zip(names, before)
    )
    assert block_reads > 0 and ranged_reads == 0


@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_synchronous_selects_reach_the_slow_query_log(engine_name):
    engine, sql = build(engine_name, "hybrid")
    engine.execute("SET slowlog_threshold_ms = 0")
    engine.execute(sql)
    records = engine.execute("SHOW SLOW QUERIES").records
    assert records and records[-1].sql == sql
    assert records[-1].latency_s > 0
    assert records[-1].plan["strategy"]


def test_served_queries_each_retain_one_tree():
    """Ten interleaved queries through the serving loop: ten ``query``
    roots (the 64-root ring used to hold < 6 queries of fragments), each
    with its own eight scans, tagged with who it served."""
    from repro.serving import QueryRequest, ServingConfig, ServingFrontend, run_virtual

    engine, sql = build("core-serial", "hybrid")
    engine.execute("SET slowlog_threshold_ms = 0")
    frontend = ServingFrontend(engine, ServingConfig(max_inflight=4))
    engine.tracer.reset()
    dropped = engine.tracer.roots_dropped

    async def main():
        import asyncio

        return await asyncio.gather(*(
            frontend.submit(QueryRequest(sql=sql, tenant=f"t{i % 2}"))
            for i in range(10)
        ))

    replies = run_virtual(main())
    assert all(reply.ok for reply in replies)
    roots = engine.tracer.roots
    assert [root.name for root in roots] == ["query"] * 10
    assert engine.tracer.roots_dropped == dropped
    assert engine.tracer.current is None
    for root in roots:
        assert all(span.finished and span.wall_s > 0 for span in walk(root))
        assert len(root.find_all("segment_scan")) == 8
        assert root.tags["lane"] == "interactive" and root.tags["tenant"] in ("t0", "t1")
        assert root.tags["queue_wait_s"] >= 0
    assert any(root.tags["queue_wait_s"] > 0 for root in roots)  # 10 queries, 4 slots
    for reply in replies:
        # On the loop's timeline execute spans the service time, which
        # interleaving can only make longer than the query's own cost.
        execute = reply.flight["trace"].find("execute")
        assert execute.duration >= reply.result.simulated_seconds * (1 - 1e-9)
    exported = engine.export_metrics().as_dict()
    assert exported["last_trace"]["name"] == "query"
    assert exported["slow_queries"][-1]["trace"]["name"] == "query"
    assert exported["slow_queries"][-1]["trace"]["wall_s"] > 0


def test_staged_fleet_scan_retries_when_a_worker_is_gone():
    engine, sql = build("fleet-2x2", "hybrid")
    expected = engine.execute(sql, tenant="t-retry").rows
    warehouse = engine.fleet.route("t-retry", "interactive")
    scan_once = warehouse.capture_scans
    attempts = []

    def flaky_scan(*args, **kwargs):
        attempts.append(1)
        if len(attempts) == 1:
            raise WorkerUnavailableError("worker died since scheduling")
        return scan_once(*args, **kwargs)

    warehouse.capture_scans = flaky_scan
    retries = engine.metrics.count("warehouse.query_retries")
    stages = list(engine.select_stages(sql, tenant="t-retry"))
    assert stages[-1].result.rows == expected
    assert engine.metrics.count("warehouse.query_retries") == retries + 1


def knn_sqls(sql: str, queries) -> list:
    """``sql`` without its filter, once per query vector."""
    shape = re.sub(r"WHERE .* ORDER", "ORDER", sql)
    return [re.sub(r"\[.*\]", vector_sql(query), shape) for query in queries]


def run_search_batch(engine, sqls, queries):
    k = int(sqls[0].rsplit("LIMIT", 1)[1])
    return engine.search_batch("t", queries, k=k, output_columns=("id",)).results


def run_execute_batch(engine, sqls, queries):
    return engine.execute_batch(sqls)


BATCH_ENTRIES = {"search_batch": run_search_batch, "execute_batch": run_execute_batch}
BATCH_COUNTERS = (
    "queries", "pruning.widenings", "batch.submissions",
    "batch.queries", "batch.fallbacks",
)


@pytest.mark.parametrize("entry", list(BATCH_ENTRIES))
@pytest.mark.parametrize("nq", [1, 3])
@pytest.mark.parametrize("table", list(TABLES))
@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_a_batch_is_a_group_through_the_same_lifecycle(
    engine_name, table, nq, entry, monkeypatch
):
    engine, sql = build(engine_name, table)
    engine.execute("SET slowlog_threshold_ms = 0")
    widened = table == "widening"
    queries = make_cohere_like(n=600, dim=DIM, n_queries=nq).queries
    sqls = knn_sqls(sql, queries)
    flights, offer = [], engine.offer_flight

    def recording(sql, latency_s, flight, **serving):
        flights.append(flight["warehouse"])
        return offer(sql, latency_s, flight, **serving)

    monkeypatch.setattr(engine, "offer_flight", recording)
    engine.tracer.reset()
    sequential = [engine.execute(one) for one in sqls]
    assert all(len(result.rows) > 0 for result in sequential)
    sequential_roots, sequential_flights = engine.tracer.roots, flights[:]

    metrics, pins = engine.metrics, engine.table("t").manager.store
    engine.tracer.reset()
    del flights[:]
    waves_before = metrics.count("warehouse.queries")
    before = {name: metrics.count(name) for name in BATCH_COUNTERS}
    samples = len(metrics.latency("query.latency").values)
    offered, start = engine.slowlog.seen, engine.clock.now
    results = BATCH_ENTRIES[entry](engine, sqls, queries)
    advance = engine.clock.now - start

    assert [[row[0] for row in result.rows] for result in results] == [
        [row[0] for row in result.rows] for result in sequential
    ]
    # Accounted once, per query, like any SELECT — and once as a batch.
    assert {name: metrics.count(name) - before[name] for name in BATCH_COUNTERS} == {
        "queries": nq, "pruning.widenings": nq * widened,
        "batch.submissions": 1, "batch.queries": nq, "batch.fallbacks": 0,
    }
    share = results[0].simulated_seconds
    assert share > 0
    assert metrics.latency("query.latency").values[samples:] == [share] * nq
    assert [result.simulated_seconds for result in results] == [share] * nq
    assert metrics.latency("batch.latency").values[-1] == pytest.approx(share * nq)
    assert engine.slowlog.seen == offered + nq
    assert [record.sql for record in engine.slowlog.records()[-nq:]] == (
        sqls if entry == "execute_batch" else [engine.slowlog.records()[-1].sql] * nq
    )

    # One tree: the group's plans and prunes, then one execute.
    (root,) = engine.tracer.roots
    assert root.name == "query" and root.tags["queries"] == nq
    plans = nq if entry == "execute_batch" else 1
    assert [child.name for child in root.children] == (
        ["parse"] + ["plan"] * plans + ["prune"] * nq + ["execute"]
    )
    assert all(span.finished and span.wall_s > 0 for span in walk(root))
    assert engine.tracer.current is None and pins.pinned_count == 0
    execute = root.find("execute")
    assert execute.duration == pytest.approx(share * nq, rel=1e-9)
    assert advance == pytest.approx(
        execute.duration + sum(
            span.duration for span in root.children if span.name in ("plan", "prune")
        ), rel=1e-6,
    )
    assert execute.tags.get("adaptive_widened", False) == widened
    # Every plan was made against the manifest the group pinned.
    assert {span.tags["manifest_id"] for span in root.find_all("plan")} == {
        execute.tags["manifest_id"]
    }
    # Each (query, segment) pair is scanned once: the widen wave scans the
    # reserve segments only (6 scans a widened query, not 7).
    scans = execute.find_all("segment_scan")
    assert sum(scan.tags.get("queries", 1) for scan in scans) == sum(
        result.segments_scanned for result in results
    ) == sum(result.segments_scanned for result in sequential)
    if nq > 1:  # the batched kernel: one scan serves every query probing it
        assert len(scans) < sum(result.segments_scanned for result in results)
    assert len(execute.find_all("merge_project")) == nq * (1 + widened)

    # The batch scans where its SELECTs scan: the same warehouse, one
    # warehouse query per wave, the same index cache tiers.
    warehouses = {one.tags.get("warehouse") for one in sequential_roots}
    assert len(warehouses) == 1
    assert root.tags.get("warehouse") in warehouses
    assert flights == sequential_flights
    if engine_name.startswith("core"):
        assert warehouses == {None}
        assert metrics.count("warehouse.queries") == waves_before
    else:
        assert warehouses != {None}
        assert metrics.count("warehouse.queries") == waves_before + 1 + widened
        assert execute.find_all("worker_scan")

    def tiers(roots):
        return {
            span.tags["tier"] for one in roots for span in one.find_all("index_resolve")
        }

    assert tiers([root]) == tiers(sequential_roots)


@pytest.mark.parametrize("entry", list(BATCH_ENTRIES))
def test_a_batch_that_raises_mid_scan_leaves_nothing_behind(entry, monkeypatch):
    engine, sql = build("core-serial", "widening")
    queries = make_cohere_like(n=600, dim=DIM, n_queries=3).queries
    pins = engine.table("t").manager.store
    kernel, calls = parallel._batch_scan_segment, []

    def failing_kernel(*args):
        calls.append(1)
        if len(calls) == 3:  # the second segment of the widen wave
            raise RuntimeError("kernel died")
        return kernel(*args)

    monkeypatch.setattr(parallel, "_batch_scan_segment", failing_kernel)
    engine.tracer.reset()
    queries_before = engine.metrics.count("queries")
    with pytest.raises(RuntimeError, match="kernel died"):
        BATCH_ENTRIES[entry](engine, knn_sqls(sql, queries), queries)
    assert pins.pinned_count == 0
    assert engine.tracer.current is None
    assert [root.name for root in engine.tracer.roots] == ["query"]
    assert all(span.finished for span in walk(engine.tracer.roots[0]))
    assert engine.metrics.count("queries") == queries_before


def test_a_batch_checks_for_cancellation_between_segments():
    engine, sql = build("core-serial", "widening")
    _, query = engine._parse(knn_sqls(sql, [np.zeros(DIM)])[0])
    rows = make_cohere_like(n=600, dim=DIM, n_queries=3).queries
    token, seen = CancelToken(), []
    with engine.tracer.span("query") as root, pytest.raises(QueryCancelledError):
        backend = engine._backend("default", "interactive")
        for stage in engine._lifecycle([query], root, backend, cancel=token, rows=rows):
            seen.append(stage.name)
            if stage.name == "scan":
                token.cancel()
    assert seen[-1] == "scan" and "widen" not in seen
    assert engine.table("t").manager.store.pinned_count == 0


def test_execute_batch_honours_as_of():
    engine, sql = build("core-serial", "widening")
    manager = engine.table("t").manager
    queries = make_cohere_like(n=600, dim=DIM, n_queries=3).queries
    sqls = knn_sqls(sql, queries)
    current = [engine.execute(one).rows for one in sqls]
    old = manager.manifest_id
    victims = sorted({row[0] for rows in current for row in rows[:3]})
    engine.execute(f"DELETE FROM t WHERE id IN ({', '.join(map(str, victims))})")
    new = manager.manifest_id
    assert new > old
    pinned = [one.replace("FROM t", f"FROM t AS OF {old}") for one in sqls]
    counters = ("batch.submissions", "batch.fallbacks")
    before = [engine.metrics.count(name) for name in counters]

    engine.tracer.reset()
    assert [result.rows for result in engine.execute_batch(pinned)] == current
    assert [engine.execute(one).rows for one in pinned] == current
    root = engine.tracer.roots[0]
    assert {span.tags["manifest_id"] for span in root.find_all("plan")} == {old}
    assert root.find("execute").tags["manifest_id"] == old
    assert [engine.metrics.count(name) for name in counters] == [before[0] + 1, before[1]]
    # Without the pin the batch sees the delete, like the statements do.
    after_delete = [result.rows for result in engine.execute_batch(sqls)]
    assert after_delete == [engine.execute(one).rows for one in sqls] != current

    # Statements pinned to different manifests are not one batch.
    mixed = [pinned[0], sqls[1].replace("FROM t", f"FROM t AS OF {new}"), sqls[2]]
    assert [result.rows for result in engine.execute_batch(mixed)] == [
        current[0], after_delete[1], after_delete[2]
    ]
    assert [engine.metrics.count(name) for name in counters] == [before[0] + 2, before[1] + 1]
    assert manager.store.pinned_count == 0


def test_batch_widening_matches_sequential():
    engine, sql = build("core-serial", "widening")
    k = int(sql.rsplit("LIMIT", 1)[1])
    queries = make_cohere_like(n=600, dim=DIM, n_queries=3).queries
    sequential = [
        engine.execute(
            f"SELECT id, dist FROM t ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
        ).rows
        for query in queries
    ]
    widenings = engine.metrics.count("pruning.widenings")
    batch = engine.search_batch("t", queries, k=k)
    assert [len(result.rows) for result in batch.results] == [k] * 3
    assert [
        [row[0] for row in result.rows] for result in batch.results
    ] == [[row[0] for row in rows] for rows in sequential]
    assert engine.metrics.count("pruning.widenings") == widenings + 3
