"""Dual accounting for the Section 3 analysis (Lemma 5 / Lemma 6).

The convex-programming relaxation of the weighted flow-time plus energy
problem has dual constraints

.. math::

    \\frac{\\lambda_j}{p_{ij}} \\le \\delta_{ij}(t - r_j + p_{ij})
        + \\alpha\\, u_i(t)^{\\alpha-1}
        + \\frac{\\alpha}{\\gamma(\\alpha-1)} w_j^{(\\alpha-1)/\\alpha}

for every machine ``i``, job ``j`` and time ``t >= r_j``, where

.. math::

    u_i(t) = \\Big(\\frac{\\epsilon}{\\gamma(1+\\epsilon)(\\alpha-1)}\\Big)^{1/(\\alpha-1)}
             V_i(t)^{1/\\alpha}

and ``V_i(t)`` is the total *fractional* weight (weight scaled by remaining
volume) of jobs dispatched to ``i`` that are not yet definitively finished.

:class:`EnergyFlowDualAccountant` reconstructs ``V_i(t)`` from the finished
simulation and checks the constraints on sampled times, mirroring
:class:`repro.core.dual.FlowTimeDualAccountant` for Section 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.schedule import SimulationResult
from repro.utils.numeric import EPS


@dataclass(frozen=True)
class EnergyDualViolation:
    """A sampled Section 3 dual constraint that failed by more than the tolerance."""

    job_id: int
    machine: int
    time: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        """Amount by which the constraint is violated."""
        return self.lhs - self.rhs


@dataclass
class EnergyDualCheckResult:
    """Outcome of a Section 3 dual verification pass."""

    lambda_sum: float
    checked_constraints: int
    violations: list[EnergyDualViolation] = field(default_factory=list)
    monotonicity_violations: int = 0

    @property
    def feasible(self) -> bool:
        """``True`` when every sampled constraint held."""
        return not self.violations


class EnergyFlowDualAccountant:
    """Reconstructs the Section 3 dual quantities from a finished run."""

    def __init__(self, result: SimulationResult, scheduler: RejectionEnergyFlowScheduler) -> None:
        if not scheduler.lambdas:
            raise InvalidParameterError(
                "the scheduler has no recorded lambda values; run it through the engine first"
            )
        self.result = result
        self.scheduler = scheduler
        self.alpha = scheduler.alpha
        self.gamma = scheduler.gamma
        self.epsilon = scheduler.epsilon
        self._jobs = {job.id: job for job in result.instance.jobs}
        # The algorithm dispatches every job on arrival and a job never
        # leaves its machine, so its record names it.  Keyed in instance
        # (arrival) order: the order in which sums over this map add.
        self._dispatch_machine: dict[int, int] = {
            job.id: result.records[job.id].machine for job in result.instance.jobs
        }
        self._intervals_by_job: dict[int, list] = {}
        for iv in result.intervals:
            self._intervals_by_job.setdefault(iv.job_id, []).append(iv)
        self._settle_time: dict[int, float] = {}
        for record in result.records.values():
            if record.rejected:
                self._settle_time[record.job_id] = float(record.rejection_time or record.release)
            else:
                self._settle_time[record.job_id] = float(record.completion or record.release)
        self._definitive_finish = self._compute_definitive_finish()

    # -- remaining volume and fractional weight --------------------------------------

    def _compute_definitive_finish(self) -> dict[int, float]:
        """Completion/rejection time extended by the Rule-rejection remainders."""
        events_by_machine: dict[int, list] = {}
        for event in self.scheduler.rejection_events:
            events_by_machine.setdefault(event.machine, []).append(event)
        finish: dict[int, float] = {}
        for job_id, settle in self._settle_time.items():
            job = self._jobs[job_id]
            machine = self._dispatch_machine.get(job_id)
            extension = 0.0
            if machine is not None:
                for event in events_by_machine.get(machine, []):
                    if job.release <= event.time <= settle + EPS:
                        extension += event.remaining_time
            finish[job_id] = settle + extension
        return finish

    def remaining_volume(self, job_id: int, machine: int, t: float) -> float:
        """Remaining processing volume ``q_ij(t)`` of a job dispatched to ``machine``."""
        job = self._jobs[job_id]
        total = job.size_on(machine)
        executed = 0.0
        for iv in self._intervals_by_job.get(job_id, []):
            if iv.machine != machine:
                continue
            overlap = max(0.0, min(t, iv.end) - iv.start)
            executed += overlap * iv.speed
        return max(0.0, total - executed)

    def fractional_weight(self, machine: int, t: float) -> float:
        """``V_i(t)``: total fractional weight of jobs not yet definitively finished."""
        total = 0.0
        for job_id, dispatch in self._dispatch_machine.items():
            if dispatch != machine:
                continue
            job = self._jobs[job_id]
            if job.release > t + EPS:
                continue
            if t >= self._definitive_finish[job_id] - EPS:
                continue
            p = job.size_on(machine)
            if math.isinf(p) or p <= 0:
                continue
            total += job.weight * self.remaining_volume(job_id, machine, t) / p
        return total

    def u(self, machine: int, t: float) -> float:
        """``u_i(t)`` as defined in the paper's dual construction."""
        scale = (
            self.epsilon / (self.gamma * (1.0 + self.epsilon) * (self.alpha - 1.0))
        ) ** (1.0 / (self.alpha - 1.0))
        return scale * self.fractional_weight(machine, t) ** (1.0 / self.alpha)

    # -- checks ----------------------------------------------------------------------

    def check_monotonicity(self, machine: int, times: list[float] | None = None) -> int:
        """Count decreases of ``V_i(t)`` across arrival times (Lemma 5 says none at arrivals).

        ``V_i(t)`` naturally decreases as work is processed; Lemma 5 states it
        never decreases *because of* an arrival or a rejection.  We therefore
        compare ``V_i`` just before and just after each arrival to the machine
        and count decreases beyond tolerance.
        """
        arrivals = sorted(
            self._jobs[job_id].release
            for job_id, dispatch in self._dispatch_machine.items()
            if dispatch == machine
        )
        times = arrivals if times is None else times
        violations = 0
        for t in times:
            before = self.fractional_weight(machine, max(0.0, t - 1e-6))
            after = self.fractional_weight(machine, t + 1e-6)
            if after < before - 1e-6:
                violations += 1
        return violations

    def check_feasibility(
        self,
        job_ids: list[int] | None = None,
        samples_per_job: int = 25,
        tolerance: float = 1e-6,
    ) -> EnergyDualCheckResult:
        """Verify the Lemma 6 dual constraints on sampled (job, machine, time) triples."""
        instance = self.result.instance
        if job_ids is None:
            job_ids = [job.id for job in instance.jobs]
        horizon = max(self._definitive_finish.values(), default=0.0)

        violations: list[EnergyDualViolation] = []
        checked = 0
        const_term_scale = self.alpha / (self.gamma * (self.alpha - 1.0))
        for job_id in job_ids:
            job = self._jobs[job_id]
            lam = self.scheduler.lambdas.get(job_id)
            if lam is None:
                continue
            sample_times = [job.release + k * max(horizon - job.release, 1.0) / samples_per_job
                            for k in range(samples_per_job + 1)]
            for machine in range(instance.num_machines):
                p_ij = job.size_on(machine)
                if math.isinf(p_ij):
                    continue
                delta_ij = job.weight / p_ij
                w_term = const_term_scale * job.weight ** ((self.alpha - 1.0) / self.alpha)
                for t in sample_times:
                    checked += 1
                    lhs = lam / p_ij
                    rhs = (
                        delta_ij * (t - job.release + p_ij)
                        + self.alpha * self.u(machine, t) ** (self.alpha - 1.0)
                        + w_term
                    )
                    if lhs > rhs + tolerance:
                        violations.append(
                            EnergyDualViolation(
                                job_id=job_id, machine=machine, time=t, lhs=lhs, rhs=rhs
                            )
                        )

        monotonicity = sum(
            self.check_monotonicity(machine) for machine in range(instance.num_machines)
        )
        # Left to right: Python 3.12's compensated ``sum`` would give other
        # bits than 3.10 and 3.11.
        lambda_sum = 0
        for value in self.scheduler.lambdas.values():
            lambda_sum += value
        return EnergyDualCheckResult(
            lambda_sum=lambda_sum,
            checked_constraints=checked,
            violations=violations,
            monotonicity_violations=monotonicity,
        )
