"""Deterministic random-number-generator helpers.

Every stochastic component of the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  Funnelling construction through
:func:`make_rng` keeps experiments reproducible; :func:`seeds_for` derives
stable per-label seeds from one master seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


def make_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through.

    numpy loads on the first call, not on import.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing generator
        (returned unchanged so callers can share a stream deliberately).
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seeds_for(master_seed: int, labels: Sequence[str]) -> dict[str, int]:
    """Map experiment sub-labels to deterministic per-label integer seeds.

    This provides stable seeds for named sub-experiments (e.g. one per
    ``epsilon`` value in a sweep) that do not change if labels are reordered.
    """
    out: dict[str, int] = {}
    mask = (1 << 64) - 1
    for label in labels:
        h = 1469598103934665603  # FNV-1a, 64-bit wrap-around on purpose
        for ch in f"{master_seed}:{label}".encode():
            h = ((h ^ ch) * 1099511628211) & mask
        out[label] = h % (2**31 - 1)
    return out
