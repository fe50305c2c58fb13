"""Theorem 3 algorithm: non-preemptive energy minimisation with deadlines.

Section 4 of the paper considers jobs with release dates, deadlines and
machine-dependent volumes; every job must run non-preemptively at a constant
speed, finishing within its window.  Times and speeds are discretised (the
paper itself loses only a ``(1+epsilon)`` factor by doing so).

The online algorithm is a primal-dual greedy derived from a configuration LP:
when a job arrives, enumerate every valid *strategy* — a (machine, start slot,
speed) triple whose execution fits inside the job's window — and commit to the
strategy with the smallest marginal increase of the total energy

.. math::

    \\sum_t \\big[P_i(u_{it} + v) - P_i(u_{it})\\big],

where ``u_{it}`` is the speed machine ``i`` already carries at slot ``t``.
Committed strategies are never changed (the schedule is non-preemptive and
online).  For power functions ``P_i(s) = s^{\\alpha_i}`` the algorithm is
``alpha^alpha``-competitive where ``alpha = max_i alpha_i`` (Theorem 3), and
in general ``lambda/(1-mu)``-competitive for (λ, μ)-smooth powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import InfeasibleInstanceError, InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.timeline import DiscreteTimeline, Strategy


@dataclass
class EnergySchedule:
    """Result of an energy-minimisation run.

    Attributes
    ----------
    instance:
        The scheduled instance.
    strategies:
        The committed strategy of every job (keyed by job id).
    total_energy:
        Energy of the final schedule, measured directly from the timeline.
    marginal_costs:
        Marginal energy paid for each job at commit time; these are ``lambda``
        times the dual variables ``delta_j`` of the paper's analysis.
    timeline:
        The final per-machine speed profiles.
    algorithm:
        Label of the scheduler that produced the schedule.
    """

    instance: Instance
    strategies: dict[int, Strategy]
    total_energy: float
    marginal_costs: dict[int, float]
    timeline: DiscreteTimeline
    algorithm: str = "config-lp-greedy"
    extras: dict = field(default_factory=dict)

    def completion_time(self, job_id: int) -> float:
        """Completion time (end of the last occupied slot) of a job."""
        strategy = self.strategies[job_id]
        return self.timeline.time_of(strategy.end_slot)

    def start_time(self, job_id: int) -> float:
        """Start time of a job."""
        strategy = self.strategies[job_id]
        return self.timeline.time_of(strategy.start_slot)

    def validate(self, tol: float = 1e-9) -> None:
        """Check release dates, deadlines and volume coverage of every strategy."""
        jobs = {job.id: job for job in self.instance.jobs}
        for job_id, strategy in self.strategies.items():
            job = jobs[job_id]
            start = self.timeline.time_of(strategy.start_slot)
            end = self.timeline.time_of(strategy.end_slot)
            if start + tol < job.release:
                raise InfeasibleInstanceError(
                    f"job {job_id} starts at {start} before release {job.release}"
                )
            if job.deadline is not None and end > job.deadline + tol:
                raise InfeasibleInstanceError(
                    f"job {job_id} ends at {end} after deadline {job.deadline}"
                )
            executed = strategy.speed * strategy.slots * self.timeline.slot_length
            if executed + tol < job.size_on(strategy.machine):
                raise InfeasibleInstanceError(
                    f"job {job_id} executes {executed} < volume {job.size_on(strategy.machine)}"
                )

    def summary(self) -> dict:
        """Flat summary used by experiment reports."""
        return {
            "algorithm": self.algorithm,
            "num_jobs": len(self.strategies),
            "total_energy": self.total_energy,
            "max_machine_energy": max(
                (self.timeline.machine_energy(i) for i in range(self.timeline.num_machines)),
                default=0.0,
            ),
        }


class ConfigLPEnergyScheduler:
    """The Section 4 greedy primal-dual scheduler.

    Parameters
    ----------
    slot_length:
        Length of a discrete time slot.
    speeds_per_job:
        How many candidate speeds to enumerate per (job, machine) pair.  The
        candidate speeds are chosen so that the execution occupies
        ``1, 2, ..., speeds_per_job`` whole slots (capped by the job's window),
        i.e. speeds are aligned with the slot grid exactly as the paper's
        discretisation prescribes.
    speed_grid:
        Optional explicit speed grid overriding the per-job construction.
    """

    def __init__(
        self,
        slot_length: float = 1.0,
        speeds_per_job: int = 16,
        speed_grid: Sequence[float] | None = None,
    ) -> None:
        if slot_length <= 0:
            raise InvalidParameterError(f"slot_length must be positive, got {slot_length}")
        if speeds_per_job < 1:
            raise InvalidParameterError(
                f"speeds_per_job must be at least 1, got {speeds_per_job}"
            )
        self.slot_length = slot_length
        self.speeds_per_job = speeds_per_job
        self.speed_grid = None if speed_grid is None else tuple(float(s) for s in speed_grid)
        self.name = "config-lp-greedy"

    # -- candidate speeds ------------------------------------------------------------

    def candidate_speeds(self, job: Job, machine: int, timeline: DiscreteTimeline) -> list[float]:
        """Slot-aligned candidate speeds for a job on a machine."""
        if self.speed_grid is not None:
            return list(self.speed_grid)
        if job.deadline is None:
            raise InfeasibleInstanceError(
                f"job {job.id} has no deadline; the energy-minimisation model requires one"
            )
        volume = job.size_on(machine)
        if math.isinf(volume):
            return []
        window_slots = max(
            1, int(math.floor((job.deadline - job.release) / timeline.slot_length + 1e-9))
        )
        # Enumerate at most ``speeds_per_job`` candidate durations, spread
        # geometrically between 1 slot (fastest) and the whole window
        # (slowest).  Including the whole-window duration is essential: it is
        # the cheapest strategy on an empty machine, and capping the duration
        # instead would inflate the energy of long jobs artificially.
        if window_slots <= self.speeds_per_job:
            slot_counts = list(range(1, window_slots + 1))
        else:
            ratio = window_slots ** (1.0 / (self.speeds_per_job - 1))
            slot_counts = sorted(
                {
                    min(window_slots, max(1, int(round(ratio**k))))
                    for k in range(self.speeds_per_job)
                }
                | {1, window_slots}
            )
        return [volume / (slots * timeline.slot_length) for slots in slot_counts]

    def effective_slot_length(self, instance: Instance, max_slots: int = 20000) -> float:
        """Slot length adapted to the instance's tightest deadline window.

        The paper's discretisation assumes the grid is fine enough that every
        job has at least one valid strategy; when the configured
        ``slot_length`` is coarser than half the smallest window we refine it
        (bounded below so the horizon never exceeds ``max_slots`` slots).
        """
        windows = [job.window() for job in instance.jobs if job.deadline is not None]
        if not windows:
            return self.slot_length
        slot = min(self.slot_length, min(windows) / 2.0)
        horizon = max(
            (job.deadline for job in instance.jobs if job.deadline is not None),
            default=instance.horizon(),
        )
        return max(slot, horizon / max_slots)

    # -- main entry point --------------------------------------------------------------

    def schedule(self, instance: Instance, timeline: DiscreteTimeline | None = None) -> EnergySchedule:
        """Process the jobs of ``instance`` in release order and return the schedule."""
        if not instance.has_deadlines():
            raise InfeasibleInstanceError(
                "every job needs a deadline for the energy-minimisation problem"
            )
        if timeline is None:
            timeline = DiscreteTimeline.for_instance(
                instance, slot_length=self.effective_slot_length(instance)
            )

        strategies: dict[int, Strategy] = {}
        marginal_costs: dict[int, float] = {}
        for job in instance.jobs:  # instance.jobs are sorted by release date
            strategy, cost = self.best_strategy(job, instance, timeline)
            timeline.commit(strategy)
            strategies[job.id] = strategy
            marginal_costs[job.id] = cost

        schedule = EnergySchedule(
            instance=instance,
            strategies=strategies,
            total_energy=timeline.total_energy(),
            marginal_costs=marginal_costs,
            timeline=timeline,
            algorithm=self.name,
        )
        schedule.validate()
        return schedule

    def best_strategy(
        self, job: Job, instance: Instance, timeline: DiscreteTimeline
    ) -> tuple[Strategy, float]:
        """Strategy with the minimum marginal energy for ``job`` given the current profiles."""
        best: tuple[Strategy, float] | None = None
        for machine in job.eligible_machines():
            speeds = self.candidate_speeds(job, machine, timeline)
            for strategy in timeline.feasible_strategies(job, machine, speeds):
                cost = timeline.marginal_energy(
                    strategy.machine, strategy.start_slot, strategy.slots, strategy.speed
                )
                if best is None or cost < best[1] - 1e-15:
                    best = (strategy, cost)
        if best is None:
            raise InfeasibleInstanceError(
                f"job {job.id} has no feasible strategy (window too tight for the slot grid)"
            )
        return best

    # -- dual variables (Lemma 7) --------------------------------------------------------

    def dual_variables(
        self, schedule: EnergySchedule, smooth_lambda: float, smooth_mu: float
    ) -> dict:
        """The dual solution of Lemma 7 built from a finished schedule.

        ``delta_j`` is ``1/lambda`` times the marginal increase paid for job
        ``j``; ``gamma_i`` is ``-mu/lambda`` times the final energy of machine
        ``i``.  The dual objective ``sum_j delta_j + sum_i gamma_i`` equals
        ``(1-mu)/lambda`` times the algorithm's energy, which is exactly the
        lower bound Theorem 3 uses.
        """
        if smooth_lambda <= 0 or not (0 <= smooth_mu < 1):
            raise InvalidParameterError("need lambda > 0 and 0 <= mu < 1")
        delta = {
            job_id: cost / smooth_lambda for job_id, cost in schedule.marginal_costs.items()
        }
        gamma = {
            machine: -smooth_mu / smooth_lambda * schedule.timeline.machine_energy(machine)
            for machine in range(schedule.timeline.num_machines)
        }
        # Each half adds left to right: Python 3.12's compensated ``sum``
        # gives other bits than 3.10 and 3.11.
        delta_total = 0
        for value in delta.values():
            delta_total += value
        gamma_total = 0
        for value in gamma.values():
            gamma_total += value
        dual_objective = delta_total + gamma_total
        return {
            "delta": delta,
            "gamma": gamma,
            "dual_objective": dual_objective,
            "primal_objective": schedule.total_energy,
            "certified_ratio_bound": smooth_lambda / (1.0 - smooth_mu),
        }
