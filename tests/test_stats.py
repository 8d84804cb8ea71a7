"""Tests for the descriptive statistics helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import percentile, summarise


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 0) == 7.0

    def test_median_even(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_extremes(self):
        vals = [5.0, 1.0, 9.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_bounded_by_extremes(self, values, q):
        p = percentile(values, q)
        assert min(values) - 1e-9 <= p <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=2, max_size=30))
    def test_monotone_in_q(self, values):
        ps = [percentile(values, q) for q in (0, 25, 50, 75, 100)]
        assert ps == sorted(ps)


class TestSummarise:
    def test_fields(self):
        s = summarise([1.0, 2.0, 3.0, 4.0, 100.0])
        assert s.n == 5
        assert s.mean == pytest.approx(22.0)
        assert s.minimum == 1.0 and s.maximum == 100.0
        assert s.p50 == 3.0

    def test_text(self):
        text = summarise([1.0, 2.0]).text(unit="ms")
        assert "n=2" in text and "ms" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarise([])

