"""Unrelated-machine processing-time matrices.

The generators' one sampler (:mod:`repro.workloads.generators`) maps base
job sizes to an ``(n, m)`` float64 size matrix under one of the standard
machine models of the scheduling literature:

* *identical* — every machine sees the same size (the special case the lower
  bounds of the related work apply to);
* *uniform/related* — machines have fixed speed ratios;
* *unrelated* — per-(job, machine) multiplicative noise, the paper's general
  model;
* *restricted assignment* — each job is only runnable on a random subset of
  machines (``math.inf`` elsewhere), the hardest structured special case.

The identical and unrelated matrices are built here, a chunk of rows at a
time.  The related model's speeds and the restricted model's eligibility
fix-ups draw from streams that span all chunks, so the sampler draws those
two itself.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.rng import make_rng


def _check(base_sizes, num_machines: int) -> np.ndarray:
    if num_machines <= 0:
        raise InvalidParameterError(f"num_machines must be positive, got {num_machines}")
    base = np.asarray(base_sizes, dtype=float)
    bad = base[base <= 0]
    if bad.size:
        raise InvalidParameterError(f"base sizes must be positive, got {bad[0]}")
    return base


def identical_matrix_array(base_sizes, num_machines: int) -> np.ndarray:
    """Every machine sees the job's base size."""
    base = _check(base_sizes, num_machines)
    return np.repeat(base[:, None], num_machines, axis=1)


def unrelated_matrix_array(
    base_sizes,
    num_machines: int,
    correlation: float = 0.5,
    noise_spread: float = 4.0,
    seed=None,
) -> np.ndarray:
    """General unrelated machines with tunable job/machine correlation.

    ``correlation = 1`` reduces to identical machines; ``correlation = 0``
    makes every (job, machine) entry an independent draw in
    ``[base/noise_spread, base*noise_spread]``.
    """
    base = _check(base_sizes, num_machines)
    if not (0.0 <= correlation <= 1.0):
        raise InvalidParameterError(f"correlation must be in [0, 1], got {correlation}")
    if noise_spread < 1:
        raise InvalidParameterError(f"noise_spread must be >= 1, got {noise_spread}")
    rng = make_rng(seed)
    noise = rng.uniform(1.0 / noise_spread, noise_spread, size=(len(base), num_machines))
    return base[:, None] * (correlation + (1.0 - correlation) * noise)
