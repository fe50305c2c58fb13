"""Empirical competitive-ratio estimation.

The true competitive ratio divides the algorithm's cost by the offline
optimum, which is intractable at scale.  Every estimate here therefore
reports a *bracket*:

* ``ratio_vs_lower_bound`` — cost divided by a **certified lower bound** on
  OPT; this **over-estimates** the true ratio, so the paper's guarantees
  should dominate it.
* ``ratio_vs_reference`` — cost divided by the best **feasible reference
  schedule** we can construct (offline heuristics, preemptive relaxations
  labelled as references); this **under-estimates** the true ratio.

The truth lies in between; EXPERIMENTS.md reports both columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.lowerbounds.flow_combinatorial import best_flow_time_lower_bound
from repro.baselines.offline import offline_list_schedule
from repro.simulation.metrics import total_flow_time
from repro.simulation.schedule import SimulationResult
from repro.utils.numeric import safe_ratio


@dataclass(frozen=True)
class CompetitiveEstimate:
    """A bracketed competitive-ratio estimate for one algorithm on one instance."""

    algorithm: str
    cost: float
    lower_bound: float
    reference_cost: float
    theoretical_bound: float | None = None

    @property
    def ratio_vs_lower_bound(self) -> float:
        """Cost over the certified lower bound (upper estimate of the true ratio)."""
        return safe_ratio(self.cost, self.lower_bound)

    @property
    def ratio_vs_reference(self) -> float:
        """Cost over the best feasible reference (lower estimate of the true ratio)."""
        return safe_ratio(self.cost, self.reference_cost)

    @property
    def within_theoretical_bound(self) -> bool | None:
        """Whether the upper estimate respects the paper's guarantee (None if no bound)."""
        if self.theoretical_bound is None:
            return None
        return self.ratio_vs_lower_bound <= self.theoretical_bound + 1e-9

    def as_row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "algorithm": self.algorithm,
            "cost": self.cost,
            "lower_bound": self.lower_bound,
            "reference": self.reference_cost,
            "ratio_vs_lb": self.ratio_vs_lower_bound,
            "ratio_vs_ref": self.ratio_vs_reference,
            "theoretical_bound": self.theoretical_bound if self.theoretical_bound else math.nan,
        }


def flow_time_competitive_estimate(
    result: SimulationResult,
    include_lp_bound: bool = False,
    theoretical_bound: float | None = None,
    lower_bound: float | None = None,
    reference_cost: float | None = None,
) -> CompetitiveEstimate:
    """Competitive estimate for the total flow-time objective (Section 2).

    ``lower_bound``/``reference_cost`` can be passed in when the caller has
    already computed them (e.g. once per instance for several algorithms).
    """
    instance = result.instance
    lb = (
        lower_bound
        if lower_bound is not None
        else best_flow_time_lower_bound(instance, include_lp=include_lp_bound)
    )
    ref = reference_cost if reference_cost is not None else offline_list_schedule(instance)
    return CompetitiveEstimate(
        algorithm=result.algorithm,
        cost=total_flow_time(result),
        lower_bound=lb,
        reference_cost=ref,
        theoretical_bound=theoretical_bound,
    )
