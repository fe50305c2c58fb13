"""The paper's contribution: rejection-based online non-preemptive schedulers.

Three algorithms are implemented, one per section of the paper:

* :class:`~repro.core.flow_time.RejectionFlowTimeScheduler` — Theorem 1,
  total flow-time minimisation on unrelated machines, ``2((1+eps)/eps)^2``
  competitive while rejecting at most a ``2*eps`` fraction of the jobs.
* :class:`~repro.core.flow_time_energy.RejectionEnergyFlowScheduler` —
  Theorem 2, weighted flow-time plus energy in the speed-scaling model,
  ``O((1+1/eps)^{alpha/(alpha-1)})`` competitive while rejecting at most an
  ``eps`` fraction of the total weight.
* :class:`~repro.core.energy_min.ConfigLPEnergyScheduler` — Theorem 3,
  energy minimisation with deadlines via the configuration-LP primal-dual
  greedy, ``alpha^alpha`` competitive for power functions ``s^alpha``.

Supporting modules implement the precedence orders, the rejection parameter
check, dual variable bookkeeping (used to verify Lemma 4 / Lemma 6 empirically), the
(λ, μ)-smoothness machinery of Section 4 and the closed-form theoretical
bounds used by the experiments.
"""

from repro.core.ordering import spt_key, density_key
from repro.core.bounds import (
    flow_time_competitive_ratio,
    flow_time_rejection_budget,
    energy_flow_competitive_ratio,
    energy_flow_gamma,
    energy_min_competitive_ratio,
    energy_min_lower_bound,
    immediate_rejection_lower_bound,
)
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.core.dual import FlowTimeDualAccountant, DualCheckResult
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.core.dual_energy import EnergyFlowDualAccountant
from repro.core.energy_min import ConfigLPEnergyScheduler, EnergySchedule
from repro.core.smoothness import (
    smoothness_parameters,
    smooth_competitive_ratio,
)

__all__ = [
    "spt_key",
    "density_key",
    "flow_time_competitive_ratio",
    "flow_time_rejection_budget",
    "energy_flow_competitive_ratio",
    "energy_flow_gamma",
    "energy_min_competitive_ratio",
    "energy_min_lower_bound",
    "immediate_rejection_lower_bound",
    "RejectionFlowTimeScheduler",
    "FlowTimeDualAccountant",
    "DualCheckResult",
    "RejectionEnergyFlowScheduler",
    "EnergyFlowDualAccountant",
    "ConfigLPEnergyScheduler",
    "EnergySchedule",
    "smoothness_parameters",
    "smooth_competitive_ratio",
]
