"""Unrelated-machine processing-time matrices.

Each function maps base job sizes to per-machine size vectors, covering the
standard machine models used in the scheduling literature:

* *identical* — every machine sees the same size (the special case the lower
  bounds of the related work apply to);
* *uniform/related* — machines have fixed speed ratios;
* *unrelated* — per-(job, machine) multiplicative noise, the paper's general
  model;
* *restricted assignment* — each job is only runnable on a random subset of
  machines (``math.inf`` elsewhere), the hardest structured special case.

Like the size distributions, the identical, related and unrelated models
have an array flavour (``*_matrix_array``) returning a ``(n, m)`` float64
matrix without building per-job Python tuples; the tuple-returning
originals wrap them, consuming the random stream identically.  Restricted
assignment has no array flavour: ``restricted_assignment_matrix`` interleaves
its fix-up draws per job and keeps its own loop so existing seeds reproduce
exactly, and the chunked generators draw it in their own ``_matrix_chunk``
with a dedicated fix-up stream.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.rng import make_rng


def _check(base_sizes, num_machines: int) -> None:
    if num_machines <= 0:
        raise InvalidParameterError(f"num_machines must be positive, got {num_machines}")
    for p in base_sizes:
        if p <= 0:
            raise InvalidParameterError(f"base sizes must be positive, got {p}")


def _rows(matrix: np.ndarray) -> list[tuple[float, ...]]:
    return [tuple(float(p) for p in row) for row in matrix]


def identical_matrix_array(base_sizes, num_machines: int) -> np.ndarray:
    """Every machine sees the job's base size — ``(n, m)`` array flavour."""
    _check(base_sizes, num_machines)
    base = np.asarray(base_sizes, dtype=float)
    return np.repeat(base[:, None], num_machines, axis=1)


def identical_matrix(base_sizes: list[float], num_machines: int) -> list[tuple[float, ...]]:
    """Every machine sees the job's base size."""
    return _rows(identical_matrix_array(base_sizes, num_machines))


def uniform_related_matrix_array(
    base_sizes,
    num_machines: int,
    speed_spread: float = 4.0,
    seed=None,
) -> np.ndarray:
    """Related machines as a ``(n, m)`` array (see :func:`uniform_related_matrix`)."""
    _check(base_sizes, num_machines)
    if speed_spread < 1:
        raise InvalidParameterError(f"speed_spread must be >= 1, got {speed_spread}")
    rng = make_rng(seed)
    speeds = rng.uniform(1.0, speed_spread, size=num_machines)
    speeds[0] = 1.0  # keep one reference machine at unit speed
    base = np.asarray(base_sizes, dtype=float)
    return base[:, None] / speeds[None, :]


def uniform_related_matrix(
    base_sizes: list[float],
    num_machines: int,
    speed_spread: float = 4.0,
    seed=None,
) -> list[tuple[float, ...]]:
    """Related machines: machine ``i`` has a fixed speed in ``[1, speed_spread]``.

    Faster machines see proportionally smaller processing times.
    """
    return _rows(
        uniform_related_matrix_array(
            base_sizes, num_machines, speed_spread=speed_spread, seed=seed
        )
    )


def unrelated_matrix_array(
    base_sizes,
    num_machines: int,
    correlation: float = 0.5,
    noise_spread: float = 4.0,
    seed=None,
) -> np.ndarray:
    """General unrelated machines as a ``(n, m)`` array (see :func:`unrelated_matrix`)."""
    _check(base_sizes, num_machines)
    if not (0.0 <= correlation <= 1.0):
        raise InvalidParameterError(f"correlation must be in [0, 1], got {correlation}")
    if noise_spread < 1:
        raise InvalidParameterError(f"noise_spread must be >= 1, got {noise_spread}")
    rng = make_rng(seed)
    base = np.asarray(base_sizes, dtype=float)
    noise = rng.uniform(1.0 / noise_spread, noise_spread, size=(len(base), num_machines))
    return base[:, None] * (correlation + (1.0 - correlation) * noise)


def unrelated_matrix(
    base_sizes: list[float],
    num_machines: int,
    correlation: float = 0.5,
    noise_spread: float = 4.0,
    seed=None,
) -> list[tuple[float, ...]]:
    """General unrelated machines with tunable job/machine correlation.

    ``correlation = 1`` reduces to identical machines; ``correlation = 0``
    makes every (job, machine) entry an independent draw in
    ``[base/noise_spread, base*noise_spread]``.
    """
    return _rows(
        unrelated_matrix_array(
            base_sizes,
            num_machines,
            correlation=correlation,
            noise_spread=noise_spread,
            seed=seed,
        )
    )


def restricted_assignment_matrix(
    base_sizes: list[float],
    num_machines: int,
    eligible_fraction: float = 0.5,
    seed=None,
) -> list[tuple[float, ...]]:
    """Each job is runnable only on a random non-empty subset of the machines."""
    _check(base_sizes, num_machines)
    if not (0.0 < eligible_fraction <= 1.0):
        raise InvalidParameterError(
            f"eligible_fraction must be in (0, 1], got {eligible_fraction}"
        )
    rng = make_rng(seed)
    rows = []
    for p in base_sizes:
        eligible = rng.uniform(0.0, 1.0, size=num_machines) < eligible_fraction
        if not eligible.any():
            eligible[int(rng.integers(num_machines))] = True
        row = tuple(float(p) if ok else math.inf for ok in eligible)
        rows.append(row)
    return rows
