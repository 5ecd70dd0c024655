"""Tests for auto-index parameter selection."""

import pytest

from repro.vindex.autoindex import (
    MIN_TRAIN_POINTS_PER_CENTROID,
    auto_build_spec,
    select_ivf_nlist,
    select_nprobe,
)
from repro.vindex.registry import IndexSpec


class TestRule:
    def test_monotone_in_n(self):
        values = [select_ivf_nlist(n) for n in (100, 1_000, 10_000, 100_000)]
        assert values == sorted(values)

    def test_training_points_constraint(self):
        for n in (100, 1_000, 50_000):
            nlist = select_ivf_nlist(n)
            assert n // max(nlist, 1) >= MIN_TRAIN_POINTS_PER_CENTROID or nlist == 1

    def test_tiny_segments_get_one_cell(self):
        assert select_ivf_nlist(0) == 1
        assert select_ivf_nlist(10) == 1

    def test_sqrt_shape(self):
        # 4·sqrt(1e6) = 4000, clamped by training constraint (25641).
        assert select_ivf_nlist(1_000_000) == 4000


class TestNprobe:
    def test_target_beta(self):
        assert select_nprobe(100, target_beta=0.1) == 10

    def test_at_least_one(self):
        assert select_nprobe(4, target_beta=0.01) == 1

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            select_nprobe(10, target_beta=0)


class TestSpecAdjustment:
    def test_ivf_spec_gets_nlist(self):
        spec = IndexSpec(index_type="IVFFLAT", dim=8)
        adjusted = auto_build_spec(spec, 10_000)
        assert adjusted.params["nlist"] == select_ivf_nlist(10_000)

    def test_explicit_nlist_wins(self):
        spec = IndexSpec(index_type="IVFFLAT", dim=8, params={"nlist": 3})
        assert auto_build_spec(spec, 10_000).params["nlist"] == 3

    def test_graph_specs_untouched(self):
        spec = IndexSpec(index_type="HNSW", dim=8, params={"m": 8})
        assert auto_build_spec(spec, 10_000) is spec

