"""Plan A's per-segment and per-query fixed costs.

Plan A is brute force over the rows a selective filter keeps.  Its scan
mask and its projection are paid once per segment and once per query,
so they are kept cheap, and these tests pin what the cheap forms must
keep:

* a segment with nothing deleted builds no alive mask (no
  ``delete_bitmap.filter`` span, no counter bump), while a segment with
  deletes still does, and the rows equal a numpy oracle's either way;
* the mask ``_structured_scan_mask`` returns is the caller's to write:
  writing it never reaches the segment's columns or its delete bitmap;
* ``_project`` returns the values, and the Python types, of the
  element-by-element projection it replaced, frozen below.
"""

import numpy as np
import pytest

from repro.catalog.schema import TableSchema
from repro.core.database import BlendHouse
from repro.executor.columnio import ColumnReader
from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    PreparedScan,
    _merge_partials,
    _project,
    _structured_scan_mask,
)
from repro.observe.trace import Tracer
from repro.planner.cost import CostModelParams
from repro.planner.logical import bind_select
from repro.planner.optimizer import ExecutionStrategy, PhysicalPlan
from repro.planner.rules import apply_rules
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.sqlparser.ast_nodes import ColumnDef
from repro.sqlparser.parser import parse_statement
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment
from tests.helpers import vector_sql

DIM = 4
SEGMENT_ROWS = 40


# ----------------------------------------------------------------------
# The delete mask: only segments with deletes build one
# ----------------------------------------------------------------------
def make_db(rows: int = 160):
    rng = np.random.default_rng(3)
    db = BlendHouse()
    db.execute(
        "CREATE TABLE t (id UInt64, views UInt64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={DIM}'))"
    )
    db.table("t").writer.config.max_segment_rows = SEGMENT_ROWS
    data = [
        {
            "id": i,
            "views": int(rng.integers(0, 1000)),
            "embedding": rng.normal(size=DIM).astype(np.float32),
        }
        for i in range(rows)
    ]
    db.insert_rows("t", data)
    db.execute("SET forced_strategy = 'brute_force'")
    return db, data


def oracle_ids(data, query, threshold, k, deleted=()):
    """Top-k ids by l2 among live rows with ``views < threshold``."""
    keep = [
        row for row in data
        if row["views"] < threshold and row["id"] not in deleted
    ]
    distances = [float(np.sum((row["embedding"] - query) ** 2)) for row in keep]
    order = np.argsort(distances, kind="stable")[:k]
    return [keep[i]["id"] for i in order]


class TestDeleteMaskOnlyWhereDeleted:
    def test_clean_segments_skip_the_mask_dirty_ones_keep_it(self):
        db, data = make_db()
        query = np.full(DIM, 0.1, dtype=np.float32)
        sql = (
            f"SELECT id, dist FROM t WHERE views < 400 ORDER BY "
            f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT 8"
        )

        before = db.metrics.count("delete_bitmap.filters")
        clean = db.execute(sql)
        assert clean.strategy is ExecutionStrategy.BRUTE_FORCE
        root = db.tracer.last_root()
        assert len(root.find_all("segment_scan")) == 160 // SEGMENT_ROWS
        assert root.find_all("delete_bitmap.filter") == []
        assert db.metrics.count("delete_bitmap.filters") == before
        assert [row[0] for row in clean.rows] == oracle_ids(data, query, 400, 8)

        # Delete the best live row: its segment alone now carries deletes.
        victim = clean.rows[0][0]
        db.execute(f"DELETE FROM t WHERE id = {victim}")
        dirty = db.execute(sql)
        spans = db.tracer.last_root().find_all("delete_bitmap.filter")
        assert len(spans) == 1 and spans[0].tags["deleted"] == 1
        assert db.metrics.count("delete_bitmap.filters") == before + 1
        assert [row[0] for row in dirty.rows] == oracle_ids(
            data, query, 400, 8, deleted={victim}
        )
        assert dirty.rows == clean.rows[1:] + dirty.rows[-1:]


# ----------------------------------------------------------------------
# Direct pipeline fixtures: one segment with every column type
# ----------------------------------------------------------------------
@pytest.fixture
def schema():
    # ``flag`` is declared numeric (the DDL has no Bool type) but the
    # segment below stores it as a bool array, so a bare ``WHERE flag``
    # evaluates to the column's own dtype.
    return TableSchema.from_ddl(
        "t",
        [
            ColumnDef("id", "UInt64"),
            ColumnDef("views", "Int64"),
            ColumnDef("score", "Float32"),
            ColumnDef("ratio", "Float64"),
            ColumnDef("flag", "UInt64"),
            ColumnDef("label", "String"),
            ColumnDef("embedding", "Array", ("Float32",)),
        ],
    )


def make_segment(part: int, n: int = 12) -> Segment:
    rng = np.random.default_rng(part)
    labels = [f"l{part}-{i}" for i in range(n)]
    labels[1] = np.str_(labels[1])  # a numpy scalar inside a list column
    return Segment.from_columns(
        f"t/seg-{part}", "t",
        {
            "id": np.arange(part * n, (part + 1) * n, dtype=np.uint64),
            "views": rng.integers(-500, 500, size=n).astype(np.int64),
            "score": rng.normal(size=n).astype(np.float32),
            "ratio": rng.normal(size=n),
            "flag": rng.integers(0, 2, size=n).astype(bool),
            "label": labels,
        },
        rng.normal(size=(n, DIM)).astype(np.float32),
    )


def make_ctx() -> ExecContext:
    clock = SimulatedClock()
    cost = DeviceCostModel()
    return ExecContext(
        clock=clock,
        cost=cost,
        params=CostModelParams.from_device_model(cost, DIM),
        reader=ColumnReader(clock, cost),
        resolve_index=lambda segment: None,
        tracer=Tracer(clock),
    )


def plan_for(sql, schema, strategy=ExecutionStrategy.BRUTE_FORCE):
    logical = apply_rules(bind_select(parse_statement(sql), schema))
    return PhysicalPlan(logical=logical, strategy=strategy)


VEC = vector_sql(np.full(DIM, 0.2))


class TestScanMaskIsTheCallers:
    @pytest.mark.parametrize("where", [
        "", "WHERE flag ", "WHERE views ", "WHERE views < 0 ",
        "WHERE NOT flag ", "WHERE ratio > 0 AND flag ",
    ])
    @pytest.mark.parametrize("deleted", [None, (), (2, 5)])
    def test_writing_the_mask_leaves_the_segment_alone(self, schema, where, deleted):
        segment = make_segment(0)
        bitmap = None
        if deleted is not None:
            bitmap = DeleteBitmap(segment.row_count)
            bitmap.mark_deleted(deleted)
            bitmap.freeze()
        plan = plan_for(
            f"SELECT id FROM t {where}ORDER BY L2Distance(embedding, {VEC}) LIMIT 3",
            schema,
        )
        names = ("id", "views", "score", "ratio", "flag")
        before = {name: segment.scalar_column(name).copy() for name in names}
        alive_before = None if bitmap is None else bitmap.alive_mask()

        mask = _structured_scan_mask(PreparedScan.of(plan), segment, bitmap, make_ctx())
        assert mask.dtype == bool and mask.shape == (segment.row_count,)
        assert mask.flags.writeable
        if deleted:
            assert not mask[list(deleted)].any()
        mask[:] = ~mask

        for name in names:
            np.testing.assert_array_equal(segment.scalar_column(name), before[name])
        if bitmap is not None:
            np.testing.assert_array_equal(bitmap.alive_mask(), alive_before)


# ----------------------------------------------------------------------
# Projection: the same values and Python types as the frozen original
# ----------------------------------------------------------------------
def reference_project(plan, merged, ctx):
    """``_project`` as it was, converting one element at a time."""
    logical = plan.logical
    names = []
    for column, alias in zip(logical.output_columns, logical.output_aliases):
        if alias:
            names.append(alias)
        elif column == "__distance__":
            names.append("distance")
        else:
            names.append(column)
    by_segment = {}
    segment_objects = {}
    for position, (segment, offset, _) in enumerate(merged):
        by_segment.setdefault(segment.segment_id, []).append(position)
        segment_objects[segment.segment_id] = segment
    values_by_position = [[None] * len(merged) for _ in names]
    for col_idx, column in enumerate(logical.output_columns):
        if column == "__distance__":
            for position, (_, _, dist) in enumerate(merged):
                values_by_position[col_idx][position] = dist
            continue
        for segment_id, positions in by_segment.items():
            segment = segment_objects[segment_id]
            offsets = [merged[p][1] for p in positions]
            if column == segment.meta.vector_column:
                fetched = segment.vectors_at(offsets)
                ctx.clock.advance(ctx.cost.ram_read(int(np.asarray(fetched).nbytes)))
            else:
                fetched = ctx.reader.fetch(segment, column, offsets)
            for local, position in enumerate(positions):
                value = fetched[local]
                if isinstance(value, np.generic):
                    value = value.item()
                values_by_position[col_idx][position] = value
    rows = [
        tuple(values_by_position[col][pos] for col in range(len(names)))
        for pos in range(len(merged))
    ]
    return names, rows


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for a, b in zip(got_row, want_row):
            assert type(a) is type(b), (a, b)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            else:
                assert a == b


class TestProjection:
    @pytest.mark.parametrize("sql", [
        "SELECT id, views, score, ratio, flag, label, embedding, dist FROM t "
        f"ORDER BY L2Distance(embedding, {VEC}) AS dist LIMIT 9",
        f"SELECT *, L2Distance(embedding, {VEC}) FROM t "
        f"ORDER BY L2Distance(embedding, {VEC}) LIMIT 5 OFFSET 2",
        "SELECT label, id, flag FROM t WHERE views < 100 LIMIT 30",
    ])
    def test_matches_the_element_by_element_projection(self, schema, sql):
        segments = [make_segment(part) for part in range(3)]
        plan = plan_for(sql, schema)
        rng = np.random.default_rng(8)
        partials = []
        for segment in segments:
            # Interleaved distances: merged rows alternate segments.
            offsets = rng.permutation(segment.row_count)[:7].astype(np.int64)
            distances = None
            if plan.logical.is_vector_query:
                distances = rng.random(offsets.size)
            partials.append(PartialResult(segment, offsets, distances))
        merged = _merge_partials(plan, partials)
        assert len({row[0].segment_id for row in merged}) > 1

        ctx, reference_ctx = make_ctx(), make_ctx()
        names, rows = _project(plan, merged, ctx)
        want_names, want_rows = reference_project(plan, merged, reference_ctx)
        assert names == want_names
        assert_same_rows(rows, want_rows)
        assert ctx.clock.now == reference_ctx.clock.now
