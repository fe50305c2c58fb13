"""Processing-time (volume) distributions for synthetic workloads.

Each function draws ``count`` base sizes from ``seed`` (an integer or a
:class:`numpy.random.Generator` whose stream it advances) as one float64
array.  They are the size stage of the generators' one sampler
(:mod:`repro.workloads.generators`), which rescales the sizes to a target
load and spreads them over the machines.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.rng import make_rng


def _check(count: int) -> None:
    if count < 0:
        raise InvalidParameterError(f"count must be non-negative, got {count}")


def uniform_sizes_array(
    count: int, low: float = 1.0, high: float = 10.0, seed=None
) -> np.ndarray:
    """Sizes drawn uniformly from ``[low, high]``."""
    _check(count)
    if low <= 0 or high < low:
        raise InvalidParameterError(f"need 0 < low <= high, got [{low}, {high}]")
    rng = make_rng(seed)
    return rng.uniform(low, high, size=count)


def exponential_sizes_array(
    count: int, mean: float = 5.0, minimum: float = 0.1, seed=None
) -> np.ndarray:
    """Exponential sizes with the given mean, clipped below at ``minimum``."""
    _check(count)
    if mean <= 0 or minimum <= 0:
        raise InvalidParameterError("mean and minimum must be positive")
    rng = make_rng(seed)
    return np.maximum(minimum, rng.exponential(mean, size=count))


def bounded_pareto_sizes_array(
    count: int,
    shape: float = 1.5,
    low: float = 1.0,
    high: float = 1000.0,
    seed=None,
) -> np.ndarray:
    """Bounded-Pareto sizes in ``[low, high]`` — the classic heavy-tailed
    workload of systems papers.

    Heavy tails are the regime where non-preemptive scheduling is hardest
    (short jobs stuck behind long ones), i.e. where the paper's rejection
    rules matter most.
    """
    _check(count)
    if shape <= 0:
        raise InvalidParameterError(f"shape must be positive, got {shape}")
    if low <= 0 or high <= low:
        raise InvalidParameterError(f"need 0 < low < high, got [{low}, {high}]")
    rng = make_rng(seed)
    u = rng.uniform(0.0, 1.0, size=count)
    l_a = low**shape
    h_a = high**shape
    return (-(u * h_a - u * l_a - h_a) / (h_a * l_a)) ** (-1.0 / shape)


def bimodal_sizes_array(
    count: int,
    short: float = 1.0,
    long: float = 50.0,
    long_fraction: float = 0.1,
    seed=None,
) -> np.ndarray:
    """A mixture of short and long jobs (the Lemma 1 flavour of heterogeneity)."""
    _check(count)
    if short <= 0 or long <= 0:
        raise InvalidParameterError("sizes must be positive")
    if not (0 <= long_fraction <= 1):
        raise InvalidParameterError(f"long_fraction must be in [0, 1], got {long_fraction}")
    rng = make_rng(seed)
    draws = rng.uniform(0.0, 1.0, size=count)
    return np.where(draws < long_fraction, float(long), float(short))
