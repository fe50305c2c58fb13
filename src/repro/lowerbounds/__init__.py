"""Certified lower bounds on the offline optimum.

Competitive ratios reported by the experiments divide the algorithm's cost by
one of these bounds, so every function here must be a *true* lower bound on
the optimal non-preemptive schedule:

* :mod:`repro.lowerbounds.flow_combinatorial` — simple combinatorial bounds
  for total flow time;
* :mod:`repro.lowerbounds.flow_lp` — the paper's time-indexed LP relaxation
  solved with ``scipy.optimize.linprog`` (its optimum is at most twice OPT,
  so half of it is certified);
* :mod:`repro.lowerbounds.energy_bounds` — convexity-based bounds for the
  speed-scaling objectives (Sections 3 and 4) and the YDS bound.
"""

from repro.lowerbounds.flow_combinatorial import (
    total_processing_lower_bound,
    busy_interval_lower_bound,
    best_flow_time_lower_bound,
)
from repro.lowerbounds.flow_lp import FlowTimeLPRelaxation, lp_flow_time_lower_bound
from repro.lowerbounds.energy_bounds import (
    per_job_flow_energy_lower_bound,
    per_job_deadline_energy_lower_bound,
    best_energy_lower_bound,
)

__all__ = [
    "total_processing_lower_bound",
    "busy_interval_lower_bound",
    "best_flow_time_lower_bound",
    "FlowTimeLPRelaxation",
    "lp_flow_time_lower_bound",
    "per_job_flow_energy_lower_bound",
    "per_job_deadline_energy_lower_bound",
    "best_energy_lower_bound",
]
