"""Tests for the pluggable index registry."""

import numpy as np
import pytest

from repro.errors import IndexParameterError, UnknownIndexTypeError
from repro.vindex.api import SearchResult, VectorIndex
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


class TestPluggability:
    def test_register_custom_type(self):
        register_index_type("_ECHO", _EchoIndex, int_params=set())
        spec = IndexSpec(index_type="_ECHO", dim=4)
        index = create_index(spec)
        assert isinstance(index, _EchoIndex)
        assert "_ECHO" in registered_types()
