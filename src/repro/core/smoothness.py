"""(λ, μ)-smoothness machinery used by the Section 4 analysis.

Definition 1 of the paper: a set function ``f`` is (λ, μ)-smooth when for any
set ``A = {a_1, ..., a_n}`` and any nested collection ``B_1 ⊆ ... ⊆ B_n ⊆ B``

.. math::

    \\sum_{i=1}^{n} \\big[f(B_i \\cup a_i) - f(B_i)\\big]
        \\le \\lambda f(A) + \\mu f(B).

For power functions ``P(s) = s^alpha`` over speed profiles (sets of speeds
summed pointwise) the relevant scalar form, the *smooth inequality* of Cohen,
Dürr and Thang, is: for any non-negative ``a_1..a_n`` and ``b_1..b_n``,

.. math::

    \\sum_{i=1}^n \\Big[\\big(b_i + \\textstyle\\sum_{j \\le i} a_j\\big)^\\alpha
        - \\big(\\textstyle\\sum_{j \\le i} a_j\\big)^\\alpha\\Big]
        \\le \\lambda(\\alpha) \\Big(\\sum_i b_i\\Big)^\\alpha
          + \\mu(\\alpha) \\Big(\\sum_i a_i\\Big)^\\alpha

with ``mu(alpha) = (alpha-1)/alpha`` and ``lambda(alpha) = Theta(alpha^{alpha-1})``,
which yields the ``alpha^alpha`` competitive ratio of Theorem 3.

The Theorem 3 *algorithm* never needs these constants — they appear only in
the analysis — so this module exists to (a) check the inequality numerically
(:func:`required_lambda`, used by the property tests), and (b) turn
smoothness parameters into the certified competitive ratio
``lambda / (1 - mu)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class SmoothnessParameters:
    """A (λ, μ) pair together with the alpha it was derived for."""

    alpha: float
    lam: float
    mu: float

    @property
    def competitive_ratio(self) -> float:
        """The Theorem 3 guarantee ``lambda / (1 - mu)``."""
        return smooth_competitive_ratio(self.lam, self.mu)


def mu_default(alpha: float) -> float:
    """The paper's choice ``mu(alpha) = (alpha - 1) / alpha``."""
    if alpha < 1:
        raise InvalidParameterError(f"alpha must be at least 1, got {alpha}")
    return (alpha - 1.0) / alpha


def lambda_single_step(alpha: float, mu: float, grid: int = 4000, t_max: float = 64.0) -> float:
    """Numeric sup of ``(t+1)^alpha - (1+mu) t^alpha`` over ``t >= 0``.

    This is the smallest λ for which the *single-element* smooth inequality
    (``n = 1``, ``b`` normalised to 1) holds; the sequence form requires a λ
    at least this large.  It is Θ(alpha^{alpha-1}).
    """
    if alpha < 1:
        raise InvalidParameterError(f"alpha must be at least 1, got {alpha}")
    if not (0 <= mu < 1):
        raise InvalidParameterError(f"mu must lie in [0, 1), got {mu}")
    best = 1.0
    for k in range(grid + 1):
        t = t_max * k / grid
        value = (t + 1.0) ** alpha - (1.0 + mu) * t**alpha
        best = max(best, value)
    return best


def smoothness_parameters(alpha: float, safety: float = 2.0) -> SmoothnessParameters:
    """Smoothness parameters used for reporting the Theorem 3 certificate.

    ``mu = (alpha-1)/alpha`` as in the paper; ``lambda`` is the single-step
    numeric bound scaled by a ``safety`` factor to cover the sequence form
    (the paper only needs ``lambda = Theta(alpha^{alpha-1})``).  The resulting
    certified ratio ``lambda/(1-mu)`` is ``Theta(alpha^alpha)``.
    """
    mu = mu_default(alpha)
    lam = safety * lambda_single_step(alpha, mu)
    return SmoothnessParameters(alpha=alpha, lam=lam, mu=mu)


def smooth_competitive_ratio(lam: float, mu: float) -> float:
    """Theorem 3: a (λ, μ)-smooth instance admits a ``lambda/(1-mu)``-competitive greedy."""
    if lam <= 0:
        raise InvalidParameterError(f"lambda must be positive, got {lam}")
    if not (0 <= mu < 1):
        raise InvalidParameterError(f"mu must lie in [0, 1), got {mu}")
    return lam / (1.0 - mu)


def smooth_inequality_lhs(alpha: float, a: Sequence[float], b: Sequence[float]) -> float:
    """Left-hand side of the smooth inequality for the scalar power function."""
    if len(a) != len(b):
        raise InvalidParameterError("a and b must have equal length")
    prefix = 0.0
    total = 0.0
    for a_i, b_i in zip(a, b):
        if a_i < 0 or b_i < 0:
            raise InvalidParameterError("smooth inequality requires non-negative values")
        total += (b_i + prefix + a_i) ** alpha - (prefix + a_i) ** alpha
        prefix += a_i
    return total


def required_lambda(alpha: float, a: Sequence[float], b: Sequence[float], mu: float) -> float:
    """Smallest λ making the smooth inequality hold for the given sequences."""
    total_b = sum(b)
    denominator = total_b**alpha if total_b > 0 else 0.0
    if denominator <= 0.0:
        # Either no b at all, or sum(b)^alpha underflowed to zero; in both
        # cases the inequality holds for any lambda (the LHS underflows too).
        return 0.0
    lhs = smooth_inequality_lhs(alpha, a, b)
    return max(0.0, (lhs - mu * sum(a) ** alpha) / denominator)
