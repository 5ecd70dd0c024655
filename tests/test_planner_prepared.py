"""The prepared SELECT path is the full path, minus the parser.

A warm engine binds a repeat statement straight from its scan's literal
vector onto the shape's cached template; an engine with ``SET
enable_plan_cache = 0`` parses, binds and optimizes every statement in
full.  Whatever the literals, the two must agree on the plan field by
field, on the rows, on the simulated time and on the exception — and the
warm engine must get there without calling ``parse_statement``.
"""

import copy
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.database as database
from repro.core.database import BlendHouse
from repro.errors import BindError, ParseError, PlannerError
from repro.ingest.writer import IngestConfig
from tests.helpers import vector_sql

DIM = 8
ROWS = 480
LABELS = ["news", "sports", "tech"]

ORDER = "ORDER BY L2Distance(embedding, {v}) AS dist LIMIT {k}"
# (statement shape, whether the slot map can describe it)
SHAPES = [
    ("SELECT id, dist FROM t " + ORDER, True),
    ("SELECT id, dist FROM t WHERE attr < {n} " + ORDER, True),
    ("SELECT id, dist FROM t WHERE attr BETWEEN {n} AND {n2} " + ORDER, True),
    ("SELECT id, dist FROM t WHERE attr IN ({n}, {n2}, {n3}) " + ORDER, True),
    ("SELECT id, dist FROM t WHERE label LIKE {like} " + ORDER, True),
    ("SELECT id, dist FROM t WHERE label = {s} AND NOT attr >= {n} " + ORDER, True),
    ("SELECT id, dist FROM t WHERE attr > -{n} AND attr < {f}e2 " + ORDER, True),
    ("SELECT id, dist FROM t WHERE attr < {n} " + ORDER + " OFFSET {o}", True),
    ("SELECT id FROM t WHERE L2Distance(embedding, {v}) < {r}", True),
    ("SELECT id FROM t WHERE attr < {n} AND {r} >= L2Distance(embedding, {v})", True),
    ("SELECT id FROM t WHERE L2Distance(embedding, {v}) < {r} LIMIT {k}", True),
    ("SELECT id, dist FROM t AS OF {m} WHERE attr < {n} " + ORDER, True),
    ("SELECT * FROM t WHERE attr < {n} LIMIT {k}", True),
    ("SELECT id, label FROM t WHERE label = {s} LIMIT {k} OFFSET {o}", True),
    ("EXPLAIN SELECT id, dist FROM t WHERE attr < {n} " + ORDER, True),
    ("EXPLAIN ANALYZE SELECT id, dist FROM t WHERE attr < {n} " + ORDER, True),
    ("select id, dist from t where attr < {n} "
     "order by l2distance(embedding, {v}) as dist limit {k}", True),
    ("SELECT id, dist -- the nearest\n FROM t WHERE attr < {n} -- filtered\n" + ORDER, True),
    # Two vector literals: the range vector is compared with the ORDER BY
    # vector, or one sits in the projection — bound in full every time.
    ("SELECT id FROM t WHERE L2Distance(embedding, {v}) < {r} "
     "ORDER BY L2Distance(embedding, {v}) LIMIT {k}", False),
    ("SELECT id, L2Distance(embedding, {v}) AS d FROM t "
     "ORDER BY L2Distance(embedding, {v}) LIMIT {k}", False),
]


def make_engine(cache: bool) -> BlendHouse:
    rng = np.random.default_rng(7)
    db = BlendHouse(ingest_config=IngestConfig(max_segment_rows=120))
    db.execute(
        "CREATE TABLE t (id UInt64, attr Int64, label String, "
        f"embedding Array(Float32), INDEX ann embedding TYPE HNSW('DIM={DIM}'))"
    )
    for batch in range(4):
        db.insert_rows("t", [
            {
                "id": i,
                "attr": int(rng.integers(0, 1000)),
                "label": LABELS[i % 3],
                "embedding": rng.normal(size=DIM).astype(np.float32),
            }
            for i in range(batch * ROWS // 4, (batch + 1) * ROWS // 4)
        ])
    if not cache:
        db.execute("SET enable_plan_cache = 0")
    return db


def fill(shape: str, **overrides) -> str:
    values = dict(
        v=vector_sql(np.linspace(-1, 1, DIM)), n=400, n2=700, n3=15, f="2.5",
        s="'news'", like="'ne%'", k=5, o=2, r="3.5", m=2,
    )
    values.update(overrides)
    return shape.format(**values)


@pytest.fixture(scope="module")
def engines():
    """A warm engine that has prepared every shape, and its full-path
    twin.  Every test runs the same statements on both, so their caches
    (and with them the simulated times) stay in step."""
    warm, cold = make_engine(True), make_engine(False)
    for shape, _ in SHAPES:
        warm.execute(fill(shape))
        cold.execute(fill(shape))
    return warm, cold


def logical_fields(logical):
    distance = logical.distance
    return {
        "table": logical.table,
        "output_columns": logical.output_columns,
        "output_aliases": logical.output_aliases,
        "predicate": logical.scalar_predicate,
        "metric": distance and distance.metric,
        "alias": distance and distance.alias,
        "query": distance and (distance.query_vector.dtype, distance.query_vector.tobytes()),
        "k": logical.k,
        "offset": logical.offset,
        "distance_range": logical.distance_range,
        "needs_vector_column": logical.needs_vector_column,
        "wants_distance_output": logical.wants_distance_output,
    }


def plan_fields(plan):
    return {
        **logical_fields(plan.logical),
        "strategy": plan.strategy,
        "search_params": plan.search_params,
        "sigma": plan.sigma,
        "estimated_costs": plan.estimated_costs,
        "estimated_selectivity": plan.estimated_selectivity,
        "cbo_used": plan.cbo_used,
        "short_circuited": plan.short_circuited,
        "use_index": plan.use_index,
    }


def comparable(rows):
    """Rows with any projected vector as bytes (``==`` on arrays is elementwise)."""
    return [
        tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in row)
        for row in rows
    ]


def outcome(db: BlendHouse, sql: str):
    """Everything observable about running ``sql``: its plan and result,
    or the exception."""
    try:
        explained = sql.lstrip().upper().startswith("EXPLAIN")
        plan = db.execute(sql if explained else "EXPLAIN " + sql).plan
        result = db.execute(sql)
        if explained:
            result = result.result
        ran = result and (result.columns, comparable(result.rows),
                          result.simulated_seconds, result.segments_scanned,
                          result.strategy)
        return plan_fields(plan), ran
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "position", None)


def parser_spy():
    """Counts the engine's calls of ``parse_statement`` (and lets them through)."""
    return mock.patch.object(
        database, "parse_statement", wraps=database.parse_statement
    )


def counted(db: BlendHouse, sql: str):
    """``outcome`` plus how often the engine called the parser for it."""
    with parser_spy() as parser:
        return outcome(db, sql), parser.call_count


finite = dict(allow_nan=False, allow_infinity=False)
vectors = st.lists(
    st.floats(-4, 4, width=32, **finite), min_size=DIM, max_size=DIM
).map(vector_sql)
# The parser's number forms: ints, decimals, exponents (incl. "1e3", ".5", "2.").
numbers = st.one_of(
    st.integers(0, 999).map(str),
    st.floats(0, 999, **finite).map(repr),
    st.sampled_from(["1e2", "2.5E1", ".5", "2.", "7e-1", "3e+2"]),
)
literals = st.fixed_dictionaries(dict(
    v=vectors,
    n=st.integers(0, 999), n2=st.integers(0, 999), n3=st.integers(0, 999),
    f=st.sampled_from(["2.5", "9.99", "0.3"]),
    s=st.sampled_from(["'news'", "'tech'", '"sports"', "'it\\'s'", "''"]),
    like=st.sampled_from(["'ne%'", "'%s'", "'t_ch'", "'%'"]),
    k=st.integers(1, 12), o=st.integers(0, 6),
    r=numbers, m=st.integers(1, 4),
))
# Mostly draws the full path rejects; whatever it does, both must do.
broken_literals = st.one_of(
    st.lists(st.floats(-1, 1, width=32, **finite), max_size=DIM - 1).map(
        lambda xs: {"v": vector_sql(xs)}),
    st.sampled_from([
        {"k": "1.5"}, {"k": "1e3"}, {"k": "'five'"}, {"o": "0.5"}, {"m": "1.5"},
        {"m": 999}, {"n": "1e"}, {"r": "1e"}, {"r": "'wide'"},
        {"v": "[1e, 2, 3, 4, 5, 6, 7, 8]"}, {"v": "[[1, 2, 3, 4], [5, 6, 7, 8]]"},
        {"v": "[1, 2, 3, 4, 5, 6, 7, nan]"}, {"v": "[1, 2, 3, 4, 5, 6, 7, 1_0]"},
        {"v": "[1 2 3 4 -5 - 6,7,8,]"},  # odd, but in the vector grammar
    ]),
)
hypothesis_settings = settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestPreparedEqualsFull:
    @hypothesis_settings
    @given(shape=st.sampled_from(SHAPES), drawn=literals)
    def test_valid_draws(self, engines, shape, drawn):
        warm, cold = engines
        sql = fill(shape[0], **drawn)
        (got, parses), want = counted(warm, sql), outcome(cold, sql)
        assert got == want
        assert isinstance(want[0], dict), want  # a valid draw runs
        if shape[1]:
            assert parses == 0
        else:
            assert parses > 0

    @hypothesis_settings
    @given(shape=st.sampled_from(SHAPES), drawn=literals, broken=broken_literals)
    def test_invalid_draws(self, engines, shape, drawn, broken):
        warm, cold = engines
        sql = fill(shape[0], **{**drawn, **broken})
        assert outcome(warm, sql) == outcome(cold, sql)

    def test_mismatched_range_vector(self, engines):
        shape = SHAPES[-2][0].replace("{v}) <", "{w}) <")
        other = vector_sql(np.ones(DIM))
        for db in engines:
            with pytest.raises(PlannerError):
                db.execute(shape.format(v=other, w=vector_sql(np.zeros(DIM)), r=1, k=3))
            assert len(db.execute(shape.format(v=other, w=other, r=9, k=3))) == 3

    def test_a_range_radius_must_be_a_number_on_both_paths(self, engines):
        # One signature, one shape: a string where the radius goes is an
        # error, not a conjunct quietly left in the scalar predicate.
        for db in engines:
            for shape in (SHAPES[8][0], SHAPES[-2][0]):
                with pytest.raises(BindError, match="needs a number, got 'wide'"):
                    db.execute(fill(shape, r="'wide'"))
                with pytest.raises(BindError, match="needs a number, got 'wide'"):
                    db.execute(fill(shape, r="-'wide'"))

    @pytest.mark.parametrize("good, bad, error", [
        ("attr < 1 LIMIT 3", "attr < 1e LIMIT 3", ParseError),
        ("attr < 5 LIMIT 2", "attr < 5 LIMIT 1.5", ParseError),
        ("attr < 5 LIMIT 3", "attr < 5 LIMIT 1e3", ParseError),
        ("AS OF 2 LIMIT 3", "AS OF 1.5 LIMIT 3", ParseError),
        ("ORDER BY L2Distance(embedding, [1,2,3,4,5,6,7,8]) LIMIT 3",
         "ORDER BY L2Distance(embedding, [1e, 2]) LIMIT 3", ParseError),
        ("ORDER BY L2Distance(embedding, [1,2,3,4,5,6,7,8]) LIMIT 3",
         "ORDER BY L2Distance(embedding, [1, 2]) LIMIT 3", BindError),
    ])
    def test_malformed_numbers_on_both_paths(self, engines, good, bad, error):
        head = "SELECT id FROM t " + ("" if good[0] in "AO" else "WHERE ")
        raised = []
        for db in engines:
            db.execute(head + good)  # on the warm engine the shape is now prepared
            with pytest.raises(error) as info:
                db.execute(head + bad)
            raised.append((str(info.value), getattr(info.value, "position", None)))
        assert raised[0] == raised[1]
        if error is ParseError:
            assert (head + bad)[raised[0][1]] == "1"


class TestTemplates:
    def test_binding_never_changes_the_template(self):
        db = make_engine(True)
        shape = SHAPES[2][0]
        db.execute(fill(shape))
        signature = database.scan_statement(fill(shape)).signature
        template = db.plan_cache.template(signature)
        assert template is not None
        before = copy.deepcopy(template)
        rng = np.random.default_rng(3)
        plans = [
            db.execute("EXPLAIN " + fill(
                shape, v=vector_sql(rng.normal(size=DIM)), n=int(rng.integers(0, 500)),
                n2=int(rng.integers(500, 999)), k=int(rng.integers(1, 9)),
            )).plan
            for _ in range(100)
        ]
        assert db.plan_cache.template(signature) is template
        assert logical_fields(template.logical) == logical_fields(before.logical)
        assert template.select == before.select
        assert (template.vector_slot, template.radius) == (before.vector_slot, before.radius)
        # ... and no two plans share a container.
        for a, b in zip(plans, plans[1:]):
            assert a.logical.output_columns is not b.logical.output_columns
            assert a.logical.scalar_predicate is not b.logical.scalar_predicate
            assert a.search_params is not b.search_params

    def test_four_threads_one_shape_each_gets_its_own_answer(self):
        db = make_engine(True)
        shape = SHAPES[1][0]
        rng = np.random.default_rng(5)
        work = [
            [fill(shape, v=vector_sql(rng.normal(size=DIM)),
                  n=int(rng.integers(100, 999)), k=int(rng.integers(1, 9)))
             for _ in range(40)]
            for _ in range(4)
        ]
        want = [[db.execute(sql).rows for sql in sqls] for sqls in work]
        got = [None] * 4
        start = threading.Barrier(4)

        def run(who):
            start.wait()
            got[who] = [db.execute(sql).rows for sql in work[who]]

        threads = [threading.Thread(target=run, args=(who,)) for who in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside scan and bind
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    @pytest.mark.parametrize("entry", ["execute", "select_stages", "execute_batch"])
    def test_warm_queries_never_reach_the_parser(self, entry):
        db = make_engine(True)
        shape = SHAPES[0][0] if entry == "execute_batch" else SHAPES[1][0]
        rng = np.random.default_rng(9)
        sqls = [fill(shape, v=vector_sql(rng.normal(size=DIM)), n=int(rng.integers(0, 999)))
                for _ in range(51)]

        def run(batch):
            if entry == "execute":
                return [db.execute(sql).rows for sql in batch]
            if entry == "select_stages":
                return [list(db.select_stages(sql))[-1].result.rows for sql in batch]
            return [result.rows for result in db.execute_batch(batch)]

        run(sqls[:1])
        hits = db.metrics.count("plan_cache.hits")
        with parser_spy() as parser:
            rows = run(sqls[1:])
        assert parser.call_count == 0
        assert db.metrics.count("plan_cache.hits") == hits + 50
        db.execute("SET enable_plan_cache = 0")
        assert rows == run(sqls[1:])

    def test_templates_survive_data_commits_but_plans_do_not(self):
        db = make_engine(True)
        sql = fill(SHAPES[1][0])
        db.execute(sql)
        db.insert_rows("t", [{"id": 9000, "attr": 1, "label": "news",
                              "embedding": np.zeros(DIM, dtype=np.float32)}])
        assert len(db.plan_cache) == 0
        with parser_spy() as parser:
            db.execute(sql)
        assert parser.call_count == 0
        assert db.tracer.last_root().find("plan").tags["plan_cache"] == "miss"


class TestDropFencesTheCache:
    def test_drop_then_recreate_binds_against_the_new_schema(self):
        db = make_engine(True)
        sql = ("SELECT id, attr FROM t WHERE attr < 500 "
               "ORDER BY L2Distance(embedding, {v}) LIMIT 3")
        db.execute(sql.format(v=vector_sql(np.zeros(DIM))))
        signature = database.scan_statement(sql.format(v="[0]")).signature
        assert db.plan_cache.template(signature) is not None
        db.execute("DROP TABLE t")
        assert len(db.plan_cache) == 0
        assert db.plan_cache.template(signature) is None
        # Another DIM, another index type, and `attr` is gone.
        db.execute(
            "CREATE TABLE t (id UInt64, views Int64, embedding Array(Float32), "
            "INDEX ann embedding TYPE IVFFLAT('DIM=4'))"
        )
        db.insert_rows("t", [
            {"id": i, "views": i, "embedding": np.full(4, i, dtype=np.float32)}
            for i in range(40)
        ])
        with pytest.raises(BindError):
            db.execute(sql.format(v=vector_sql(np.zeros(4))))
        renamed = sql.replace("attr", "views")
        result = db.execute("EXPLAIN ANALYZE " + renamed.format(v=vector_sql(np.zeros(4))))
        assert result.trace.find("plan").tags["plan_cache"] == "miss"
        assert "nprobe" in result.plan.search_params
        assert "ef_search" not in result.plan.search_params
        assert [row[0] for row in result.result.rows] == [0, 1, 2]
        with pytest.raises(BindError):  # the old DIM is no longer accepted
            db.execute(renamed.format(v=vector_sql(np.zeros(DIM))))
