"""Highest-Density-First references for weighted flow time plus energy.

Two baselines for experiment E3:

* :class:`NoRejectionEnergyFlowScheduler` — the paper's Section 3 algorithm
  with the rejection rule switched off.  Runs on the same non-preemptive
  engine and shows what the rejection budget buys.
* :class:`HighestDensityFirstScheduler` — the classical *preemptive* HDF
  policy with speed ``(total pending weight)^{1/alpha}`` (the algorithm
  family analysed by Anand-Garg-Kumar and Nguyen/Devanur-Huang for the
  preemptive problem).  It is simulated by a dedicated event loop because the
  non-preemptive engine cannot express preemption; it serves as an optimistic
  reference, not as a feasible competitor in the paper's model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance


class NoRejectionEnergyFlowScheduler(RejectionEnergyFlowScheduler):
    """The Theorem 2 scheduler with rejections disabled (ablation baseline)."""

    def __init__(self, epsilon: float = 0.5, gamma: float | None = None) -> None:
        super().__init__(epsilon=epsilon, gamma=gamma, enable_rejection=False)
        self.name = "flow+energy-no-rejection"


@dataclass
class _PendingJob:
    job_id: int
    release: float
    weight: float
    volume: float
    remaining: float
    completion: float | None = None


def _total_weight(queue: list[_PendingJob]) -> float:
    """Total pending weight, added left to right from the int 0.

    Python 3.12's ``sum()`` of floats is compensated, so it can give other
    bits than 3.10 and 3.11; this loop gives the same bits on every version.
    """
    total = 0
    for p in queue:
        total += p.weight
    return total


@dataclass
class HDFResult:
    """Output of the preemptive HDF reference simulation."""

    weighted_flow_time: float
    energy: float
    completions: dict[int, float] = field(default_factory=dict)

    @property
    def objective(self) -> float:
        """Weighted flow time plus energy."""
        return self.weighted_flow_time + self.energy


class HighestDensityFirstScheduler:
    """Preemptive HDF with standard speed scaling (reference for E3).

    Jobs are dispatched on arrival to the machine where their density is
    highest (break ties by lower current weight backlog).  Each machine always
    processes its highest-density pending job at speed
    ``(total pending weight)^{1/alpha}``, re-evaluated at every arrival and
    completion, preempting as needed.
    """

    name = "hdf-preemptive(reference)"

    def run(self, instance: Instance) -> HDFResult:
        """Simulate preemptive HDF on ``instance`` and return its objective parts."""
        alphas = {m.alpha for m in instance.machines}
        if len(alphas) != 1:
            raise InvalidParameterError("HDF reference assumes a common alpha")
        alpha = float(next(iter(alphas)))
        if alpha <= 1:
            raise InvalidParameterError(f"alpha must exceed 1, got {alpha}")

        pending: dict[int, list[_PendingJob]] = {i: [] for i in range(instance.num_machines)}
        arrivals = list(instance.jobs)
        arrival_idx = 0
        n = len(arrivals)
        time = 0.0
        weighted_flow = 0.0
        energy = 0.0
        completions: dict[int, float] = {}

        def dispatch(job) -> int:
            best, best_value = None, -math.inf
            for machine in job.eligible_machines():
                backlog = _total_weight(pending[machine])
                value = job.density_on(machine) - 1e-3 * backlog
                if value > best_value:
                    best, best_value = machine, value
            if best is None:
                raise InvalidParameterError(f"job {job.id} cannot run on any machine")
            return best

        while arrival_idx < n or any(pending[i] for i in pending):
            active = any(pending[i] for i in pending)
            if not active:
                time = max(time, arrivals[arrival_idx].release)
            while arrival_idx < n and arrivals[arrival_idx].release <= time + 1e-12:
                job = arrivals[arrival_idx]
                machine = dispatch(job)
                pending[machine].append(
                    _PendingJob(
                        job_id=job.id,
                        release=job.release,
                        weight=job.weight,
                        volume=job.size_on(machine),
                        remaining=job.size_on(machine),
                    )
                )
                arrival_idx += 1

            next_release = arrivals[arrival_idx].release if arrival_idx < n else math.inf
            # Determine, per machine, the current speed and the running job.
            horizon = next_release
            running: dict[int, tuple[_PendingJob, float, float]] = {}
            for machine, queue in pending.items():
                if not queue:
                    continue
                total_weight = _total_weight(queue)
                speed = total_weight ** (1.0 / alpha)
                current = max(queue, key=lambda p: (p.weight / p.volume, -p.release, -p.job_id))
                running[machine] = (current, speed, total_weight)
                horizon = min(horizon, time + current.remaining / speed)
            if not running:
                time = next_release
                continue

            dt = max(0.0, horizon - time)
            for machine, (current, speed, total_weight) in running.items():
                weighted_flow += total_weight * dt
                energy += speed**alpha * dt
                current.remaining -= speed * dt
                if current.remaining <= 1e-9:
                    completions[current.job_id] = horizon
                    pending[machine] = [p for p in pending[machine] if p.job_id != current.job_id]
            time = horizon

        return HDFResult(
            weighted_flow_time=weighted_flow, energy=energy, completions=completions
        )
