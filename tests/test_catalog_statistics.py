"""Tests for histogram statistics and selectivity estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.statistics import EquiWidthHistogram, StringStats, TableStatistics
from repro.sqlparser.parser import parse_statement


def predicate(text):
    return parse_statement(f"SELECT id FROM t WHERE {text}").where


class TestHistogram:
    def test_uniform_range_estimate(self):
        values = np.arange(0, 1000)
        hist = EquiWidthHistogram.build(values)
        assert hist.selectivity_range(0, 499) == pytest.approx(0.5, abs=0.05)

    def test_out_of_domain_is_zero(self):
        hist = EquiWidthHistogram.build(np.arange(100))
        assert hist.selectivity_range(1000, 2000) == 0.0
        assert hist.selectivity_eq(-5) == 0.0

    def test_open_bounds(self):
        hist = EquiWidthHistogram.build(np.arange(100))
        assert hist.selectivity_range(None, None) == pytest.approx(1.0, abs=0.01)

    def test_eq_uses_distinct_count(self):
        values = np.repeat(np.arange(10), 10)
        hist = EquiWidthHistogram.build(values)
        assert hist.selectivity_eq(3) == pytest.approx(0.1)

    def test_empty_and_constant_columns(self):
        empty = EquiWidthHistogram.build(np.array([]))
        assert empty.selectivity_range(0, 1) == 0.0
        constant = EquiWidthHistogram.build(np.full(10, 7.0))
        assert constant.selectivity_range(7, 7) >= 0.0

    @given(
        values=st.lists(st.integers(min_value=0, max_value=100), min_size=20, max_size=200),
        low=st.integers(min_value=0, max_value=100),
        width=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_estimate_close_to_truth(self, values, low, width):
        """Histogram range estimates stay within a coarse error bound of
        the true fraction (they are estimates, not counts).  Point
        queries (width 0) use the coarser equality model and are covered
        by the dedicated eq tests."""
        arr = np.array(values, dtype=np.float64)
        hist = EquiWidthHistogram.build(arr)
        high = low + width
        est = hist.selectivity_range(low, high)
        # Equi-width histograms with uniform-within-bin interpolation can
        # be arbitrarily wrong on adversarial point-mass data, so the
        # invariants are: a valid probability, monotone in range width,
        # and exact when the range covers the whole domain.
        assert 0.0 <= est <= 1.0
        wider = hist.selectivity_range(low, high + 10)
        assert wider >= est - 1e-9
        full = hist.selectivity_range(None, None)
        assert full == pytest.approx(1.0, abs=0.01)


def reference_selectivity_range(hist, low, high):
    """``EquiWidthHistogram.selectivity_range`` as it was written over
    numpy scalars, frozen here as the oracle for the list loop."""
    if hist.total == 0:
        return 0.0
    if low is not None and low > hist.value_max:
        return 0.0
    if high is not None and high < hist.value_min:
        return 0.0
    lo = hist.edges[0] if low is None else max(low, float(hist.edges[0]))
    hi = hist.edges[-1] if high is None else min(high, float(hist.edges[-1]))
    if hi < lo:
        return 0.0
    if hi == lo:
        return hist.selectivity_eq(lo)
    covered = 0.0
    for i in range(hist.counts.shape[0]):
        left, right = float(hist.edges[i]), float(hist.edges[i + 1])
        width = right - left
        if width <= 0:
            continue
        overlap = max(0.0, min(hi, right) - max(lo, left))
        covered += hist.counts[i] * (overlap / width)
    return min(1.0, covered / hist.total)


SCALES = [1e-6, 1e-3, 1.0, 7.5, 1e3, 1e6, 1e9]


@st.composite
def column_values(draw):
    """int or float columns, constant or not, with negatives, at scales
    from 1e-6 to 1e9."""
    size = draw(st.integers(1, 120))
    scale = draw(st.sampled_from(SCALES))
    kind = draw(st.sampled_from(["int", "float", "constant"]))
    if kind == "int":
        base = draw(st.lists(st.integers(-1000, 1000), min_size=size, max_size=size))
    elif kind == "float":
        base = draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=size, max_size=size
        ))
    else:
        base = [draw(st.floats(-1000.0, 1000.0, allow_nan=False))] * size
    return np.asarray(base, dtype=np.float64) * scale


@st.composite
def bound(draw, values, hist):
    """None, a data value, a bin edge, or a point in or well outside
    ``[value_min, value_max]``."""
    low, high = float(values.min()), float(values.max())
    span = max(high - low, abs(low), 1.0)
    return draw(st.one_of(
        st.none(),
        st.sampled_from(values.tolist()),
        st.sampled_from(hist.edges.tolist()),
        st.floats(low - 2 * span, high + 2 * span, allow_nan=False),
    ))


class TestSelectivityRangeBitEquality:
    """The list loop returns the frozen numpy-scalar loop's exact bits."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_frozen_oracle(self, data):
        values = data.draw(column_values())
        hist = EquiWidthHistogram.build(values, bins=data.draw(st.integers(1, 64)))
        low = data.draw(bound(values, hist))
        high = data.draw(st.one_of(st.just(low), bound(values, hist)))
        got = hist.selectivity_range(low, high)
        want = reference_selectivity_range(hist, low, high)
        assert float.hex(got) == float.hex(want), (low, high)

    def test_seeded_interior_ranges(self):
        # Ranges whose ends cut into bins, over many bins: where the
        # rounding of the partial ends meets whole bins, the bits depend
        # on summing the bins in ascending order, and the draws above
        # seldom produce such ranges.
        rng = np.random.default_rng(3)
        values = rng.normal(size=120)
        hist = EquiWidthHistogram.build(values, bins=57)
        ranges = np.sort(rng.uniform(values.min(), values.max(), size=(200, 2)), axis=1)
        for low, high in ranges.tolist():
            got = hist.selectivity_range(low, high)
            want = reference_selectivity_range(hist, low, high)
            assert float.hex(got) == float.hex(want), (low, high)

    def test_point_and_outside_bounds(self):
        hist = EquiWidthHistogram.build(np.array([-3.0, -1.0, 0.0, 2.0, 2.0, 9.0]), bins=5)
        for low, high in [(2.0, 2.0), (-50.0, -40.0), (40.0, 50.0), (-50.0, 50.0),
                          (None, -1.0), (0.0, None), (None, None), (5.0, 1.0)]:
            got = hist.selectivity_range(low, high)
            want = reference_selectivity_range(hist, low, high)
            assert float.hex(got) == float.hex(want), (low, high)


class TestStringStats:
    def test_frequencies(self):
        stats = StringStats.build(["a", "a", "b", "c"])
        assert stats.selectivity_eq("a") == pytest.approx(0.5)
        assert stats.selectivity_eq("b") == pytest.approx(0.25)

    def test_unseen_value_rare(self):
        stats = StringStats.build(["a"] * 100)
        assert stats.selectivity_eq("zzz") <= 0.01

    def test_empty(self):
        assert StringStats.build([]).selectivity_eq("a") == 0.0


class TestTableStatistics:
    @pytest.fixture
    def stats(self):
        table_stats = TableStatistics()
        rng = np.random.default_rng(0)
        table_stats.refresh(
            {
                "views": rng.integers(0, 1000, size=2000),
                "label": [["news", "sports", "tech"][i % 3] for i in range(2000)],
            },
            2000,
        )
        return table_stats

    def test_none_predicate_is_one(self, stats):
        assert stats.estimate_selectivity(None) == 1.0

    def test_range_predicate(self, stats):
        sel = stats.estimate_selectivity(predicate("views < 500"))
        assert 0.4 < sel < 0.6

    def test_string_equality(self, stats):
        sel = stats.estimate_selectivity(predicate("label = 'news'"))
        assert 0.25 < sel < 0.42

    def test_and_multiplies(self, stats):
        sel = stats.estimate_selectivity(
            predicate("views < 500 AND label = 'news'")
        )
        assert 0.1 < sel < 0.25

    def test_or_inclusion_exclusion(self, stats):
        a = stats.estimate_selectivity(predicate("views < 500"))
        combined = stats.estimate_selectivity(
            predicate("views < 500 OR views >= 500")
        )
        assert combined >= a

    def test_not_complements(self, stats):
        sel = stats.estimate_selectivity(predicate("NOT views < 500"))
        assert 0.4 < sel < 0.6

    def test_between(self, stats):
        sel = stats.estimate_selectivity(predicate("views BETWEEN 100 AND 199"))
        assert 0.05 < sel < 0.16

    def test_in_list_sums(self, stats):
        single = stats.estimate_selectivity(predicate("label = 'news'"))
        double = stats.estimate_selectivity(predicate("label IN ('news', 'tech')"))
        assert double > single

    def test_flipped_comparison(self, stats):
        left = stats.estimate_selectivity(predicate("views < 500"))
        right = stats.estimate_selectivity(predicate("500 > views"))
        assert left == pytest.approx(right)

    def test_regex_default_guess(self, stats):
        sel = stats.estimate_selectivity(predicate("label REGEXP '^n'"))
        assert 0.0 < sel < 0.5

    def test_clamped_to_unit_interval(self, stats):
        sel = stats.estimate_selectivity(
            predicate("views < 10000 OR views < 9999 OR views < 9998")
        )
        assert 0.0 <= sel <= 1.0

    def test_function_wrapped_column(self, stats):
        sel = stats.estimate_selectivity(predicate("toYYYYMMDD(views) < 500"))
        assert 0.4 < sel < 0.6
