"""Unit tests for :mod:`repro.utils.numeric`."""

import math

import pytest

from repro.utils.numeric import integer_threshold, safe_ratio


class TestIntegerThreshold:
    def test_integer_value(self):
        assert integer_threshold(4.0) == 4

    def test_non_integer_rounds_up(self):
        assert integer_threshold(3.2) == 4

    def test_epsilon_half_gives_two(self):
        # 1/epsilon with epsilon=0.5: Rule 1 fires on the 2nd dispatch.
        assert integer_threshold(1.0 / 0.5) == 2

    def test_epsilon_third_gives_three(self):
        assert integer_threshold(1.0 / (1.0 / 3.0)) == 3

    def test_small_value_at_least_one(self):
        assert integer_threshold(0.3) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            integer_threshold(0.0)


class TestSafeRatio:
    def test_normal_division(self):
        assert safe_ratio(6.0, 3.0) == pytest.approx(2.0)

    def test_zero_denominator_returns_default(self):
        assert math.isinf(safe_ratio(1.0, 0.0))

    def test_zero_over_zero_is_one(self):
        assert safe_ratio(0.0, 0.0) == pytest.approx(1.0)
