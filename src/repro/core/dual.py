"""Dual-fitting bookkeeping for the Section 2 analysis (Lemma 4, Theorem 1).

The paper's analysis builds an explicit feasible solution of the dual of the
time-indexed LP relaxation:

* ``lambda_j = eps/(1+eps) * min_i lambda_ij`` — set once at the arrival of
  job ``j`` (recorded by the scheduler);
* ``beta_i(t) = eps/(1+eps)^2 * (|U_i(t)| + |V_i(t)|)`` where ``U_i(t)`` is the
  set of pending jobs of machine ``i`` and ``V_i(t)`` the set of jobs that are
  completed/rejected but not yet *definitively finished* (their completion
  time is extended by the work of Rule-1 rejections that happened while they
  were alive, and by an explicit adjustment for Rule-2 rejected jobs).

:class:`FlowTimeDualAccountant` reconstructs these quantities from a finished
simulation plus the scheduler's recorded events and answers two questions:

1. Is the dual solution feasible (Lemma 4), i.e. does
   ``lambda_j / p_ij <= (t - r_j)/p_ij + 1 + beta_i(t)`` hold for every
   machine ``i`` and (sampled) time ``t >= r_j``?
2. How large is the dual objective
   ``sum_j lambda_j - sum_i ∫ beta_i(t) dt`` compared to the algorithm's
   total flow time?  (Theorem 1 shows it is at least
   ``(eps/(1+eps))^2 * sum_j (C~_j - r_j) >= (eps/(1+eps))^2 * sum_j F_j``.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.schedule import SimulationResult
from repro.utils.numeric import EPS


@dataclass(frozen=True)
class DualConstraintViolation:
    """A sampled dual constraint that failed by more than the tolerance."""

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
class DualCheckResult:
    """Outcome of a dual-fitting verification pass."""

    lambda_sum: float
    beta_integral: float
    dual_objective: float
    algorithm_flow_time: float
    extended_flow_time: float
    checked_constraints: int
    violations: list[DualConstraintViolation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """``True`` when every sampled dual constraint held."""
        return not self.violations

    @property
    def dual_to_flow_ratio(self) -> float:
        """Dual objective divided by the algorithm's flow time (lower-bound strength)."""
        if self.algorithm_flow_time <= 0:
            return math.inf
        return self.dual_objective / self.algorithm_flow_time


class FlowTimeDualAccountant:
    """Reconstructs the Section 2 dual solution from a finished run."""

    def __init__(
        self,
        result: SimulationResult,
        scheduler: RejectionFlowTimeScheduler,
    ) -> None:
        if not scheduler.lambdas:
            raise InvalidParameterError(
                "the scheduler has no recorded lambda values; run it through the engine first"
            )
        self.result = result
        self.scheduler = scheduler
        self.epsilon = scheduler.epsilon
        self._jobs = {job.id: job for job in result.instance.jobs}
        # The algorithm dispatches every job on arrival and a job never
        # leaves its machine, so its record names it.  Keyed in instance
        # (arrival) order: the order in which sums over this map add.
        self._dispatch_machine: dict[int, int] = {
            job.id: result.records[job.id].machine for job in result.instance.jobs
        }
        self._settle_time: dict[int, float] = {}
        for record in result.records.values():
            if record.rejected:
                self._settle_time[record.job_id] = float(record.rejection_time or record.release)
            else:
                self._settle_time[record.job_id] = float(record.completion or record.release)
        self._definitive_finish = self._compute_definitive_finish()

    # -- definitive finish times ---------------------------------------------------

    def _compute_definitive_finish(self) -> dict[int, float]:
        """``C~_j`` for every job, per the paper's definition."""
        rule1_by_machine: dict[int, list] = {}
        for event in self.scheduler.rule1_events:
            rule1_by_machine.setdefault(event.machine, []).append(event)
        rule2_adjustment = {event.job_id: event.adjustment for event in self.scheduler.rule2_events}

        finish: dict[int, float] = {}
        for job_id, settle in self._settle_time.items():
            job = self._jobs[job_id]
            machine = self._dispatch_machine.get(job_id)
            extension = 0.0
            if machine is not None:
                for event in rule1_by_machine.get(machine, []):
                    # Rule-1 rejections that happened while j was alive
                    # (between its release and its completion/rejection),
                    # including j's own rejection.
                    if job.release <= event.time <= settle + EPS:
                        extension += event.remaining_work
            extension += rule2_adjustment.get(job_id, 0.0)
            finish[job_id] = settle + extension
        return finish

    def definitive_finish(self, job_id: int) -> float:
        """``C~_j`` of one job."""
        return self._definitive_finish[job_id]

    # -- U_i(t), V_i(t), beta_i(t) ---------------------------------------------------

    def pending_count(self, machine: int, t: float) -> int:
        """``|U_i(t)|`` — released, dispatched to ``i`` and not yet completed/rejected."""
        count = 0
        for job_id, dispatch in self._dispatch_machine.items():
            if dispatch != machine:
                continue
            job = self._jobs[job_id]
            if job.release <= t + EPS and t < self._settle_time[job_id] - EPS:
                count += 1
        return count

    def lingering_count(self, machine: int, t: float) -> int:
        """``|V_i(t)|`` — completed/rejected on ``i`` but not yet definitively finished."""
        count = 0
        for job_id, dispatch in self._dispatch_machine.items():
            if dispatch != machine:
                continue
            settle = self._settle_time[job_id]
            if settle - EPS <= t < self._definitive_finish[job_id] - EPS:
                count += 1
        return count

    def beta(self, machine: int, t: float) -> float:
        """``beta_i(t)`` of the paper."""
        scale = self.epsilon / (1.0 + self.epsilon) ** 2
        return scale * (self.pending_count(machine, t) + self.lingering_count(machine, t))

    def beta_integral(self) -> float:
        """``sum_i ∫ beta_i(t) dt = eps/(1+eps)^2 * sum_j (C~_j - r_j)``.

        Follows from the fact that each job contributes 1 to
        ``|U_i(t)| + |V_i(t)|`` exactly during ``[r_j, C~_j)``.
        """
        scale = self.epsilon / (1.0 + self.epsilon) ** 2
        return scale * self._extended_flow_time()

    def _extended_flow_time(self) -> float:
        """``sum_j (C~_j - r_j)``, added left to right: Python 3.12's
        compensated ``sum`` would give other bits than 3.10 and 3.11."""
        total = 0
        for job_id, finish in self._definitive_finish.items():
            total += finish - self._jobs[job_id].release
        return total

    # -- feasibility and objective ---------------------------------------------------

    def _sample_times(self, release: float, horizon: float, samples: int) -> list[float]:
        times = {release, release + EPS}
        events = sorted(set(self._settle_time.values()) | {j.release for j in self._jobs.values()})
        for t in events:
            if t >= release:
                times.add(t)
                times.add(t + 2 * EPS)
        if len(times) > samples:
            ordered = sorted(times)
            step = max(1, len(ordered) // samples)
            times = set(ordered[::step]) | {release, release + EPS}
        if horizon > release:
            for k in range(1, 5):
                times.add(release + k * (horizon - release) / 5.0)
        return sorted(times)

    def check_feasibility(
        self,
        job_ids: list[int] | None = None,
        samples_per_job: int = 40,
        tolerance: float = 1e-7,
    ) -> DualCheckResult:
        """Verify the dual constraints on a sample of (job, machine, time) triples.

        The constraint of the dual LP is
        ``lambda_j / p_ij - beta_i(t) <= (t - r_j)/p_ij + 1`` for every machine
        ``i``, job ``j`` and time ``t >= r_j``; Lemma 4 proves it always holds
        for the constructed solution.
        """
        instance = self.result.instance
        horizon = max(self._definitive_finish.values(), default=0.0)
        if job_ids is None:
            job_ids = [job.id for job in instance.jobs]

        violations: list[DualConstraintViolation] = []
        checked = 0
        for job_id in job_ids:
            job = self._jobs[job_id]
            lam = self.scheduler.lambdas.get(job_id)
            if lam is None:
                continue
            for t in self._sample_times(job.release, horizon, samples_per_job):
                for machine in range(instance.num_machines):
                    p_ij = job.size_on(machine)
                    if math.isinf(p_ij):
                        continue
                    checked += 1
                    lhs = lam / p_ij
                    rhs = (t - job.release) / p_ij + 1.0 + self.beta(machine, t)
                    if lhs > rhs + tolerance:
                        violations.append(
                            DualConstraintViolation(
                                job_id=job_id, machine=machine, time=t, lhs=lhs, rhs=rhs
                            )
                        )

        # The totals add left to right: Python 3.12's compensated ``sum``
        # would give other bits than 3.10 and 3.11.
        lambda_sum = 0
        for value in self.scheduler.lambdas.values():
            lambda_sum += value
        beta_int = self.beta_integral()
        flow = 0
        for record in self.result.records.values():
            flow += record.flow_time
        return DualCheckResult(
            lambda_sum=lambda_sum,
            beta_integral=beta_int,
            dual_objective=lambda_sum - beta_int,
            algorithm_flow_time=flow,
            extended_flow_time=self._extended_flow_time(),
            checked_constraints=checked,
            violations=violations,
        )

    def theoretical_dual_lower_bound(self) -> float:
        """The analysis' lower bound ``(eps/(1+eps))^2 * sum_j (C~_j - r_j)``."""
        scale = (self.epsilon / (1.0 + self.epsilon)) ** 2
        return scale * self._extended_flow_time()
