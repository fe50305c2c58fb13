"""Small numeric helpers shared across the library.

The scheduling algorithms manipulate continuous times and the paper's
rejection thresholds (``1/epsilon``, ``1 + 1/epsilon``) which are generally
not integers; these helpers centralise the conventions used to turn them into
executable comparisons.
"""

from __future__ import annotations

import math

#: Absolute tolerance used across the library when comparing continuous times.
EPS: float = 1e-9


def integer_threshold(x: float) -> int:
    """Smallest integer count that *reaches* the real threshold ``x``.

    The paper states rejection rules as "the first time the counter equals
    ``1/epsilon``"; counters are integers (number of dispatched jobs) while
    ``1/epsilon`` need not be.  We interpret the rule as firing the first time
    the integer counter is ``>= x``, i.e. when it reaches ``ceil(x)`` (and at
    least 1 so a rule can fire at all).
    """
    if x <= 0:
        raise ValueError(f"threshold must be positive, got {x}")
    return max(1, math.ceil(x - EPS))


def safe_ratio(numerator: float, denominator: float, default: float = math.inf) -> float:
    """``numerator / denominator`` guarding against a zero denominator."""
    if abs(denominator) <= EPS:
        return default if abs(numerator) > EPS else 1.0
    return numerator / denominator
