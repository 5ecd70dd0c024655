"""The engine's settable surface, pinned.

Every value a caller can set — a ``SET`` name or a field of a config
class — is listed here, so a new knob has to edit this file on purpose.
``SET`` checks its value before it stores anything.
"""

import dataclasses

import pytest

from repro.cluster.warehouse import WarehouseConfig
from repro.core.database import BlendHouse
from repro.core.settings import _PARSERS, EngineSettings
from repro.durability.manager import DurabilityConfig
from repro.elastic.fleet import FleetConfig
from repro.errors import SQLError
from repro.ingest.writer import IngestConfig
from repro.planner.optimizer import ExecutionStrategy
from repro.serving.frontend import ServingConfig

# One valid value per SET name, each different from the default.
SET_VALUES = {
    "enable_cbo": 0,
    "enable_plan_cache": 0,
    "enable_short_circuit": 0,
    "enable_read_opt": 0,
    "semantic_prune_keep": 2,
    "ef_search": 128,
    "nprobe": 16,
    "forced_strategy": "post_filter",
    "auto_compaction": 1,
    "parallel_workers": 4,
    "slowlog_threshold_ms": 5,
    "slowlog_sample_every": 20,
}

CONFIG_FIELDS = {
    EngineSettings: set(SET_VALUES),
    IngestConfig: {"max_segment_rows"},
    DurabilityConfig: {"wal_prefix", "checkpoint_prefix", "crashpoints"},
    ServingConfig: {"max_inflight", "max_queue_depth", "tenant_quota", "time_scale"},
    WarehouseConfig: {"serving_enabled", "worker_mem_data_bytes"},
    FleetConfig: {"warehouses", "workers_per_warehouse", "warehouse"},
}

QUERY = "SELECT id FROM t WHERE val < 30 ORDER BY L2Distance(embedding, [3.0, 0.0]) LIMIT 3"

DELETED_SET_NAMES = (
    "adaptive_widening",
    "enable_semantic_pruning",
    "prefilter_row_threshold",
    "trace_max_roots",
)


@pytest.mark.parametrize("config", list(CONFIG_FIELDS), ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(config):
    assert {field.name for field in dataclasses.fields(config)} == CONFIG_FIELDS[config]


def test_set_accepts_exactly_the_pinned_names():
    assert set(_PARSERS) == set(SET_VALUES)
    settings = EngineSettings()
    for name, value in SET_VALUES.items():
        before = getattr(settings, name)
        settings.apply(name, value)
        assert getattr(settings, name) != before, name
    settings.apply("READ_OPT", 1)  # names are case-blind; read_opt is an alias
    assert settings.enable_read_opt is True
    assert settings.forced_strategy is ExecutionStrategy.POST_FILTER


@pytest.mark.parametrize("name", DELETED_SET_NAMES)
def test_deleted_names_are_unknown(name):
    db = BlendHouse()
    with pytest.raises(SQLError, match="unknown setting"):
        db.execute(f"SET {name} = 1")
    assert db.settings == EngineSettings()


@pytest.fixture
def db():
    db = BlendHouse()
    db.execute(
        "CREATE TABLE t (id UInt64, val UInt64, embedding Array(Float32), "
        "INDEX ann embedding TYPE FLAT('DIM=2'))"
    )
    db.insert_rows("t", [{"id": i, "val": i, "embedding": [i, 0.0]} for i in range(40)])
    return db


@pytest.mark.parametrize(
    "statement",
    [
        # Once stored as given, after which every SELECT raised a bare ValueError.
        "SET forced_strategy = 'bogus'",
        # A bare ValueError from int(), not a SQLError.
        "SET enable_cbo = 'yes'",
        "SET ef_search = 'abc'",
        # Stored before the tracer rejected it; every later SET raised.
        "SET trace_max_roots = 0",
        "SET enable_cbo = 2",
        "SET ef_search = 0",
        "SET nprobe = 2.5",
        "SET semantic_prune_keep = 0",
        "SET forced_strategy = 'ann_only'",
        "SET slowlog_threshold_ms = -1",
        "SET slowlog_sample_every = -1",
    ],
)
def test_a_bad_set_changes_nothing(db, statement):
    before = dataclasses.replace(db.settings)
    with pytest.raises(SQLError):
        db.execute(statement)
    assert db.settings == before
    assert [row[0] for row in db.execute(QUERY).rows] == [3, 2, 4]
    db.execute("SET ef_search = 32")
    assert db.settings.ef_search == 32
