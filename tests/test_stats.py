"""Confidence intervals and total-variation helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercouple.stats import (
    tv_distance_uniform,
    wilson_interval,
)


class TestWilson:
    def test_brackets_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert 0.0 <= lo < 0.3 < hi <= 1.0

    def test_degenerate_endpoints_stay_in_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    @given(st.integers(0, 200), st.integers(1, 200))
    def test_monotone_in_successes(self, s, n):
        if s > n:
            return
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= hi <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestTvDistance:
    def test_uniform_counts_have_zero_distance(self):
        assert tv_distance_uniform({"a": 5, "b": 5}, ["a", "b"]) == 0.0
        assert tv_distance_uniform({"a": 5, "b": 5}, 2) == 0.0

    def test_point_mass_against_uniform(self):
        # TV between delta and uniform over c categories is 1 - 1/c
        assert tv_distance_uniform({"a": 9}, 3) == pytest.approx(2 / 3)
        assert tv_distance_uniform({"a": 9}, ["a", "b", "c"]) \
            == pytest.approx(2 / 3)

    def test_integer_and_explicit_categories_agree(self):
        counts = {"a": 7, "b": 2, "c": 1}
        assert tv_distance_uniform(counts, 4) == pytest.approx(
            tv_distance_uniform(counts, ["a", "b", "c", "d"]))

    def test_rejects_foreign_observations(self):
        with pytest.raises(ValueError):
            tv_distance_uniform({"z": 1}, ["a", "b"])
        with pytest.raises(ValueError):
            tv_distance_uniform({"a": 1, "b": 1, "c": 1}, 2)
        with pytest.raises(ValueError):
            tv_distance_uniform({}, 2)

    @given(st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 50),
                           min_size=1))
    def test_bounds(self, counts):
        d = tv_distance_uniform(counts, list("abcdef"))
        assert 0.0 <= d <= 1.0
