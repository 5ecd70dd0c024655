"""Plan A (brute force after the filter, paper Eq. 1) touches no index.

On the core, clustered and fleet engines a ``forced_strategy =
'brute_force'`` SELECT opens no ``index_resolve`` span and moves no
index-cache, worker, RPC or cold-load counter, warm and on the first
query after ``restart()``.  Its rows are the exact answer and the ones
recorded when Plan A still resolved the index it bypasses; on the core
engine, where a warm resolve charged nothing, so are its simulated
seconds.  A forced Plan B after a restart does resolve, and moves those
counters, so the check can see them.
"""

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.core.database import BlendHouse
from repro.elastic import FleetBlendHouse, FleetConfig
from tests.helpers import vector_sql, walk_spans

DIM = 8
ROWS = 240
SEGMENT_ROWS = 60

ENGINES = {
    "core": BlendHouse,
    "clustered": lambda: ClusteredBlendHouse(read_workers=2),
    "fleet": lambda: FleetBlendHouse(
        fleet_config=FleetConfig(warehouses=2, workers_per_warehouse=2)
    ),
}

# Counters only an index resolve moves.
RESOLVE_COUNTERS = ("index_cache.", "worker.", "warehouse.tier.", "rpc.calls",
                    "table.index_cold_loads")

# Recorded while Plan A still resolved the index: the ids every engine
# returns, and the core engine's warm simulated seconds.
PARENT_IDS = [63, 151, 61, 115, 54]
PARENT_CORE_WARM_SECONDS = float.fromhex("0x1.70a9675bc8978p-4")

_rng = np.random.default_rng(44)
VECTORS = _rng.normal(size=(ROWS, DIM)).astype(np.float32)
ATTR = _rng.integers(0, 100, size=ROWS)
QUERY = _rng.normal(size=DIM).astype(np.float32)
SQL = (
    f"SELECT id FROM t WHERE attr < 30 "
    f"ORDER BY L2Distance(embedding, {vector_sql(QUERY)}) LIMIT 5"
)


def build(engine):
    db = ENGINES[engine]()
    db.execute(
        f"CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE HNSW('DIM={DIM}'))"
    )
    db.table("t").writer.config.max_segment_rows = SEGMENT_ROWS
    db.insert_rows("t", [
        {"id": i, "attr": int(ATTR[i]), "embedding": VECTORS[i]} for i in range(ROWS)
    ])
    if engine != "core":
        db.preload("t")
    return db


def exact_ids():
    allowed = np.flatnonzero(ATTR < 30)
    # The engine's own float32 arithmetic (subtract, then reduce).
    diff = VECTORS[allowed] - QUERY
    distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return allowed[np.argsort(distances, kind="stable")[:5]].tolist()


def run(db, strategy):
    """One forced SELECT: (ids, simulated seconds, resolve counters
    moved, names of the spans it opened)."""
    db.execute(f"SET forced_strategy = '{strategy}'")
    before = dict(db.metrics.counters)
    db.tracer.reset()
    result = db.execute(SQL)
    moved = {
        name: count - before.get(name, 0)
        for name, count in db.metrics.counters.items()
        if name.startswith(RESOLVE_COUNTERS) and count != before.get(name, 0)
    }
    (root,) = db.tracer.roots
    names = {span.name for span in walk_spans(root)}
    return result.column("id"), result.simulated_seconds, moved, names


@pytest.mark.parametrize("engine", list(ENGINES))
def test_plan_a_resolves_no_index_warm_or_after_restart(engine):
    assert exact_ids() == PARENT_IDS
    db = build(engine)
    for moment in ("warm", "after restart"):
        if moment == "after restart":
            db = db.restart()
        ids, seconds, moved, names = run(db, "brute_force")
        assert ids == PARENT_IDS, (engine, moment)
        assert "index_resolve" not in names, (engine, moment)
        assert "rpc.call" not in names, (engine, moment)
        assert moved == {}, (engine, moment)
        if engine == "core" and moment == "warm":
            assert seconds == PARENT_CORE_WARM_SECONDS
    # The same check sees a resolving plan: a cold engine's first Plan B.
    db = db.restart()
    ids, _, moved, names = run(db, "pre_filter")
    assert "index_resolve" in names and moved, engine
