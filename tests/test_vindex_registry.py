"""Tests for the pluggable index registry."""

import numpy as np
import pytest

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics
from repro.errors import IndexParameterError, UnknownIndexTypeError
from repro.executor.annscan import ScanCharger, search_with_filter_op
from repro.planner.cost import CostModelParams
from repro.planner.logical import bind_select
from repro.planner.optimizer import Optimizer, estimate_visit_fraction
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.sqlparser.ast_nodes import ColumnDef
from repro.sqlparser.parser import parse_statement
from repro.vindex import registry
from repro.vindex.api import IndexFamily, SearchResult, VectorIndex, VisitKernel
from repro.vindex.registry import (
    IndexSpec,
    create_index,
    deserialize_index,
    parse_index_options,
    register_index_type,
    registered_types,
    serialize_index,
)


class TestSpec:
    def test_known_types_registered(self):
        names = registered_types()
        for expected in ("FLAT", "HNSW", "HNSWSQ", "IVFFLAT", "IVFPQ", "IVFPQFS", "DISKANN"):
            assert expected in names

    def test_unknown_type_rejected(self):
        with pytest.raises(UnknownIndexTypeError):
            IndexSpec(index_type="BTREE", dim=8)

    def test_bad_dim_rejected(self):
        with pytest.raises(IndexParameterError):
            IndexSpec(index_type="FLAT", dim=0)

    def test_case_insensitive(self):
        spec = IndexSpec(index_type="hnsw", dim=8)
        assert spec.index_type == "HNSW"

    def test_with_params_copies(self):
        spec = IndexSpec(index_type="IVFFLAT", dim=8, params={"nlist": 4})
        derived = spec.with_params(nlist=16)
        assert derived.params["nlist"] == 16
        assert spec.params["nlist"] == 4


class TestOptionsParsing:
    def test_parse_mixed_options(self):
        options = parse_index_options("DIM=960, M=16, alpha=1.2, mode=fast")
        assert options == {"dim": 960, "m": 16, "alpha": 1.2, "mode": "fast"}

    def test_quoted_values(self):
        assert parse_index_options("DIM='64'") == {"dim": 64}

    def test_empty_string(self):
        assert parse_index_options("") == {}

    def test_malformed_rejected(self):
        with pytest.raises(IndexParameterError):
            parse_index_options("DIM")


class TestCreate:
    def test_create_with_params(self):
        spec = IndexSpec(index_type="HNSW", dim=8, params={"m": 4, "ef_construction": 32})
        index = create_index(spec)
        assert index.m == 4
        assert index.ef_construction == 32

    def test_unknown_param_rejected(self):
        spec = IndexSpec(index_type="FLAT", dim=8, params={"bogus": 1})
        with pytest.raises(IndexParameterError):
            create_index(spec)

    def test_dim_metric_params_ignored(self):
        spec = IndexSpec(index_type="FLAT", dim=8, params={"dim": 8, "metric": "l2"})
        index = create_index(spec)
        assert index.dim == 8


class TestSerialization:
    def test_roundtrip_every_type(self, vectors):
        for name in registered_types():
            if name == "_ECHO":
                continue
            spec = IndexSpec(index_type=name, dim=16, params={})
            index = create_index(spec)
            index.train(vectors)
            index.add_with_ids(vectors[:100], np.arange(100))
            restored = deserialize_index(serialize_index(index))
            assert restored.index_type == index.index_type
            assert restored.ntotal == index.ntotal

    def test_unknown_payload_rejected(self):
        from repro.vindex.image import encode_image

        payload = encode_image({"index_type": "GHOST"})
        with pytest.raises(UnknownIndexTypeError):
            deserialize_index(payload)


class _EchoIndex(VectorIndex):
    """Minimal plugin proving third-party registration works."""

    index_type = "_ECHO"

    def __init__(self, dim, metric="l2"):
        super().__init__(dim, metric)
        self._n = 0

    @property
    def ntotal(self):
        return self._n

    def add_with_ids(self, vectors, ids):
        self._n += len(ids)

    def search_with_filter(self, query, k, bitset=None, **params):
        return SearchResult.empty()

    def to_payload(self):
        return {"index_type": self.index_type, "dim": self.dim, "metric": self.metric}

    @classmethod
    def from_payload(cls, payload):
        return cls(payload["dim"], payload["metric"])

    def memory_bytes(self):
        return 0


class _WalkIndex(_EchoIndex):
    """A plugin graph index whose search depth is a knob of its own."""

    index_type = "_WALK"
    search_knob = "hops"
    search_knob_default = 12
    family = IndexFamily.GRAPH
    visit_kernel = VisitKernel.VECTORIZED


@pytest.fixture
def scratch_registry(monkeypatch):
    """Registrations made in the test are gone after it."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))


def hybrid_plan(index_type):
    """The plan the optimizer picks for a filtered top-10 on a 3,000-row
    table whose index is ``index_type``."""
    schema = TableSchema.from_ddl(
        "docs",
        [
            ColumnDef("id", "UInt64"),
            ColumnDef("attr", "UInt32"),
            ColumnDef("embedding", "Array", ("Float32",)),
        ],
        index_spec=IndexSpec(index_type=index_type, dim=4, column="embedding"),
    )
    stats = TableStatistics()
    stats.refresh({"attr": np.arange(3000) % 100}, 3000)
    sql = (
        "SELECT id FROM docs WHERE attr < 30 "
        "ORDER BY L2Distance(embedding, [1.0, 0.0, 0.0, 0.0]) LIMIT 10"
    )
    optimizer = Optimizer(CostModelParams.from_device_model(DeviceCostModel(), 4))
    return optimizer.choose(bind_select(parse_statement(sql), schema), stats, schema.index_spec)


class TestPluggability:
    def test_register_custom_type(self):
        register_index_type("_ECHO", _EchoIndex)
        spec = IndexSpec(index_type="_ECHO", dim=4)
        index = create_index(spec)
        assert isinstance(index, _EchoIndex)
        assert "_ECHO" in registered_types()

    def test_plugin_facts_reach_planner_and_charger(self, scratch_registry):
        register_index_type("_WALK", _WalkIndex)
        plan = hybrid_plan("_WALK")
        assert plan.search_params == {"hops": 12}
        spec = IndexSpec(index_type="_WALK", dim=4)
        assert estimate_visit_fraction(spec, {"hops": 300}, 3000, 10) == 300 * 4.0 / 3000
        clock, cost = SimulatedClock(), DeviceCostModel()
        ScanCharger(clock, cost, MetricRegistry(), 4, "_WALK").charge_visits(1000)
        assert clock.now == cost.distance_cost_vectorized(1000, 4)

    def test_plugin_options_come_from_the_class(self, scratch_registry):
        class _Tuned(_EchoIndex):
            index_type = "_TUNED"
            build_options = {"width": float}

            def __init__(self, dim, metric="l2", width=1.0):
                super().__init__(dim, metric)
                self.width = width

        register_index_type("_TUNED", _Tuned)
        index = create_index(IndexSpec(index_type="_TUNED", dim=4, params={"width": "2.5"}))
        assert index.width == 2.5
        with pytest.raises(IndexParameterError):
            create_index(IndexSpec(index_type="_TUNED", dim=4, params={"m": 4}))

    def test_graph_type_without_knob_rejected(self, scratch_registry):
        class _Knobless(_EchoIndex):
            family = IndexFamily.GRAPH

        with pytest.raises(IndexParameterError):
            register_index_type("_KNOBLESS", _Knobless)


# What the planner and the scan charger read of each built-in type: the
# default search params; β on 3,000 rows at k 10 with the knob at its
# default and at 256; and the clock advance of a bitmap top-10 whose
# search reports 1,000 visits, refine included (dim 128, sigma 2).  The
# floats are pinned bit for bit, as float.hex.  DISKANN's β follows its
# own knob, ``beam``; an ``ef_search`` it would not walk moves nothing.
PINNED_FACTS = {
    "FLAT": ({}, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
             "0x1.1d3671ac14c67p-14"),
    "HNSW": ({"ef_search": 64}, "0x1.5d867c3ece2a5p-4", "0x1.5d867c3ece2a5p-2",
             "0x1.f09b082ea2aacp-16"),
    "HNSWSQ": ({"ef_search": 64}, "0x1.5d867c3ece2a5p-4", "0x1.5d867c3ece2a5p-2",
               "0x1.f09b082ea2aacp-16"),
    "DISKANN": ({"beam": 64}, "0x1.5d867c3ece2a5p-4", "0x1.5d867c3ece2a5p-2",
                "0x1.f09b082ea2aacp-16"),
    "IVFFLAT": ({"nprobe": 8}, "0x1.0000000000000p-3", "0x1.0000000000000p+0",
                "0x1.1d3671ac14c67p-14"),
    "IVFPQ": ({"nprobe": 8}, "0x1.0000000000000p-3", "0x1.0000000000000p+0",
              "0x1.6504e770671b6p-16"),
    "IVFPQFS": ({"nprobe": 8}, "0x1.0000000000000p-3", "0x1.0000000000000p+0",
                "0x1.376297cfbff15p-17"),
}


class _ThousandVisits:
    """A provider whose every top-k reports 1,000 visits."""

    def search_with_filter(self, query, k, bitset=None, **params):
        return SearchResult(np.zeros(0, np.int64), np.zeros(0), visited=1000)


class TestDeclaredFacts:
    def test_every_builtin_type_pinned(self):
        assert set(PINNED_FACTS) <= set(registered_types())

    @pytest.mark.parametrize("index_type", sorted(PINNED_FACTS))
    def test_consumers_read_the_pinned_facts(self, index_type):
        defaults, beta_default, beta_256, charged = PINNED_FACTS[index_type]
        spec = IndexSpec(index_type=index_type, dim=128)
        optimizer = Optimizer(CostModelParams.from_device_model(DeviceCostModel(), 128))
        assert optimizer.default_search_params(spec) == defaults
        deeper = {knob: 256 for knob in defaults}
        assert estimate_visit_fraction(spec, defaults, 3000, 10).hex() == beta_default
        assert estimate_visit_fraction(spec, deeper, 3000, 10).hex() == beta_256
        clock = SimulatedClock()
        charger = ScanCharger(clock, DeviceCostModel(), MetricRegistry(), 128, index_type)
        search_with_filter_op(
            _ThousandVisits(), np.zeros(128, np.float32), 10, np.ones(1000, bool),
            charger, sigma=2.0,
        )
        assert clock.now.hex() == charged
