"""Tests for the (λ, μ)-smoothness machinery of Section 4."""

import pytest

from repro.core.smoothness import (
    lambda_single_step,
    mu_default,
    required_lambda,
    smooth_competitive_ratio,
    smooth_inequality_lhs,
    smoothness_parameters,
)
from repro.exceptions import InvalidParameterError


class TestParameters:
    def test_mu_formula(self):
        assert mu_default(2.0) == pytest.approx(0.5)
        assert mu_default(4.0) == pytest.approx(0.75)

    def test_mu_invalid(self):
        with pytest.raises(InvalidParameterError):
            mu_default(0.5)

    def test_lambda_single_step_alpha_two(self):
        # For alpha=2, mu=1/2 the sup of (t+1)^2 - 1.5 t^2 is 3 (at t = 2).
        assert lambda_single_step(2.0, 0.5) == pytest.approx(3.0, rel=1e-3)

    def test_lambda_grows_like_alpha_power(self):
        values = [smoothness_parameters(alpha).lam for alpha in (2.0, 2.5, 3.0)]
        assert values[0] < values[1] < values[2]

    def test_competitive_ratio_formula(self):
        assert smooth_competitive_ratio(3.0, 0.5) == pytest.approx(6.0)
        with pytest.raises(InvalidParameterError):
            smooth_competitive_ratio(-1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            smooth_competitive_ratio(1.0, 1.0)

    def test_parameters_certify_lambda_over_one_minus_mu(self):
        params = smoothness_parameters(3.0)
        assert params.mu == pytest.approx(2.0 / 3.0)
        assert params.lam > 0
        assert params.competitive_ratio == pytest.approx(params.lam / (1.0 - params.mu))


class TestSmoothInequality:
    def test_lhs_known_value(self):
        # a=(1,1), b=(1,1), alpha=2: [(1+1)^2 - 1] + [(1+2)^2 - 4] = 3 + 5 = 8.
        assert smooth_inequality_lhs(2.0, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(8.0)

    def test_holds_with_default_parameters(self):
        sequences = [
            ([1.0, 1.0], [1.0, 1.0]),
            ([2.0, 0.5, 1.0], [0.5, 3.0, 1.0]),
            ([0.0, 0.0], [2.0, 2.0]),
            ([4.0], [0.1]),
        ]
        for alpha in (1.5, 2.0, 2.5, 3.0):
            params = smoothness_parameters(alpha)
            for a, b in sequences:
                assert required_lambda(alpha, a, b, params.mu) <= params.lam + 1e-9

    def test_required_lambda_below_parameter(self):
        for alpha in (2.0, 3.0):
            params = smoothness_parameters(alpha)
            for a, b in [([1.0, 2.0, 1.0], [2.0, 0.5, 1.0]), ([0.5] * 5, [1.5] * 5)]:
                assert required_lambda(alpha, a, b, params.mu) <= params.lam + 1e-9

    def test_required_lambda_known_value(self):
        # a=(2,), b=(1,), alpha=2, mu=0: LHS (1+2)^2 - 2^2 = 5, so lambda = 0.1 fails.
        assert required_lambda(2.0, [2.0], [1.0], mu=0.0) == pytest.approx(5.0)

    def test_rejects_negative_values(self):
        with pytest.raises(InvalidParameterError):
            smooth_inequality_lhs(2.0, [-1.0], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            smooth_inequality_lhs(2.0, [1.0], [1.0, 2.0])

    def test_zero_b_trivial(self):
        assert required_lambda(2.0, [1.0, 2.0], [0.0, 0.0], mu=0.5) == 0.0
