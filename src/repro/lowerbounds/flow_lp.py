"""Time-indexed LP relaxation of the flow-time problem (Section 2 of the paper).

The paper lower-bounds the optimum through the linear program

.. math::

    \\min \\sum_{i,j} \\int_{r_j}^{\\infty}
        \\Big(\\frac{t - r_j}{p_{ij}} + 1\\Big) x_{ij}(t)\\,dt
    \\quad\\text{s.t.}\\quad
    \\sum_i \\int \\frac{x_{ij}(t)}{p_{ij}}\\,dt \\ge 1,\\;
    \\sum_j x_{ij}(t) \\le 1,

whose optimum is at most **twice** the optimal non-preemptive total flow time
(each job pays its fractional flow time plus its processing time, both of
which are at most its true flow time).  Therefore ``LP*/2`` is a certified
lower bound on OPT.

This module discretises the LP on a uniform slot grid and solves it with
``scipy.optimize.linprog``.  The discretisation uses the *left endpoint* of
each slot as the cost coefficient and lets a job use the whole slot containing
its release date; both choices only enlarge the feasible region / lower the
cost relative to the continuous LP, so the discrete optimum never exceeds the
continuous one and the ``/2`` bound stays certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance


@dataclass
class FlowTimeLPRelaxation:
    """Builder/solver for the discretised time-indexed LP.

    Parameters
    ----------
    instance:
        The scheduling instance (machine speed factors must be 1; the LP
        models the paper's unit-speed setting).
    slot_length:
        Grid resolution.  Smaller slots tighten the relaxation but increase
        the LP size (``n * m * T`` variables).
    max_slots:
        Hard cap on the number of slots; the horizon is truncated to
        ``max_slots * slot_length`` (the LP needs enough room to place all
        fractional work — the default horizon is generous).
    """

    instance: Instance
    slot_length: float = 1.0
    max_slots: int = 2000

    def __post_init__(self) -> None:
        if self.slot_length <= 0:
            raise InvalidParameterError("slot_length must be positive")
        for machine in self.instance.machines:
            if not math.isclose(machine.speed_factor, 1.0):
                raise InvalidParameterError(
                    "the LP relaxation models unit-speed machines; "
                    f"machine {machine.id} has speed factor {machine.speed_factor}"
                )

    def horizon_slots(self) -> int:
        """Number of slots needed so every job can be fully scheduled."""
        horizon = self.instance.horizon()
        slots = int(math.ceil(horizon / self.slot_length)) + 1
        return min(self.max_slots, max(1, slots))

    def solve(self) -> float:
        """Solve the discretised LP and return its optimal objective value."""
        # scipy loads here, on the first LP bound, not on `import repro`.
        from scipy.optimize import linprog
        from scipy.sparse import coo_matrix, vstack

        instance = self.instance
        n = instance.num_jobs
        m = instance.num_machines
        T = self.horizon_slots()
        if n == 0:
            return 0.0

        jobs = list(instance.jobs)
        # Variable layout: index(j, i, t) = (j * m + i) * T + t, value = fraction
        # of slot t of machine i devoted to job j.
        num_vars = n * m * T

        def var(j: int, i: int, t: int) -> int:
            return (j * m + i) * T + t

        costs = np.zeros(num_vars)
        release_slot = []
        for j, job in enumerate(jobs):
            r_slot = int(math.floor(job.release / self.slot_length))
            release_slot.append(r_slot)
            for i in range(m):
                p = job.size_on(i)
                if math.isinf(p):
                    # Forbidden assignment: make it unusable via an upper bound of 0.
                    continue
                for t in range(r_slot, T):
                    slot_start = t * self.slot_length
                    coeff = (max(0.0, slot_start - job.release) / p + 1.0) * self.slot_length
                    costs[var(j, i, t)] = coeff

        # Coverage constraints: sum_i sum_t x/p >= 1  ->  -sum x/p <= -1
        rows, cols, data = [], [], []
        for j, job in enumerate(jobs):
            for i in range(m):
                p = job.size_on(i)
                if math.isinf(p):
                    continue
                for t in range(release_slot[j], T):
                    rows.append(j)
                    cols.append(var(j, i, t))
                    data.append(-self.slot_length / p)
        coverage = coo_matrix((data, (rows, cols)), shape=(n, num_vars))
        coverage_rhs = -np.ones(n)

        # Capacity constraints: sum_j x_ij(t) <= 1 for every machine-slot.
        rows, cols, data = [], [], []
        for i in range(m):
            for t in range(T):
                row = i * T + t
                for j, job in enumerate(jobs):
                    if math.isinf(job.size_on(i)) or t < release_slot[j]:
                        continue
                    rows.append(row)
                    cols.append(var(j, i, t))
                    data.append(1.0)
        capacity = coo_matrix((data, (rows, cols)), shape=(m * T, num_vars))
        capacity_rhs = np.ones(m * T)

        a_ub = vstack([coverage, capacity]).tocsr()
        b_ub = np.concatenate([coverage_rhs, capacity_rhs])

        bounds = [(0.0, 0.0)] * num_vars
        for j, job in enumerate(jobs):
            for i in range(m):
                if math.isinf(job.size_on(i)):
                    continue
                for t in range(release_slot[j], T):
                    bounds[var(j, i, t)] = (0.0, 1.0)

        result = linprog(costs, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if not result.success:
            raise InvalidParameterError(f"LP solver failed: {result.message}")
        return float(result.fun)

    def lower_bound(self) -> float:
        """``LP*/2`` — a certified lower bound on the optimal total flow time."""
        return self.solve() / 2.0


def lp_flow_time_lower_bound(
    instance: Instance, slot_length: float | None = None, max_slots: int = 2000
) -> float:
    """Convenience wrapper building and solving :class:`FlowTimeLPRelaxation`.

    ``slot_length`` defaults to roughly 1/4 of the smallest processing time
    (clamped so that the LP stays tractable).
    """
    if slot_length is None:
        sizes = instance.finite_sizes()
        smallest = min(sizes) if sizes else 1.0
        horizon = instance.horizon()
        slot_length = max(smallest / 4.0, horizon / max_slots)
    relaxation = FlowTimeLPRelaxation(
        instance=instance, slot_length=slot_length, max_slots=max_slots
    )
    return relaxation.lower_bound()
