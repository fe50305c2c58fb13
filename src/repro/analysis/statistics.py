"""Summary statistics used by experiment reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Distribution:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float

    def as_dict(self) -> dict:
        """Plain-dict view."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p95": self.p95,
            "max": self.maximum,
        }


def describe(values: Iterable[float]) -> Distribution:
    """Compute the standard summary of a sample (empty samples allowed)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        zero = 0.0
        return Distribution(0, zero, zero, zero, zero, zero, zero, zero, zero)
    return Distribution(
        count=int(data.size),
        mean=float(np.mean(data)),
        std=float(np.std(data)),
        minimum=float(np.min(data)),
        p25=float(np.percentile(data, 25)),
        median=float(np.percentile(data, 50)),
        p75=float(np.percentile(data, 75)),
        p95=float(np.percentile(data, 95)),
        maximum=float(np.max(data)),
    )
