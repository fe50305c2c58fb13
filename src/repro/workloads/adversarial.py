"""Adversarial constructions from the paper's lower-bound proofs.

* :func:`lemma1_instance` — the two-phase single-machine instance of Lemma 1
  showing that *immediate*-rejection policies are Ω(sqrt(Δ))-competitive.
* :class:`Lemma2Adversary` — the *adaptive* adversary of Lemma 2 that forces
  any deterministic non-preemptive energy-minimisation algorithm to pay
  Ω((α/9)^α) times the optimum.
* :func:`overload_burst_instance` — a generic overload burst used as an extra
  stress workload in the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.energy_min import ConfigLPEnergyScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.timeline import DiscreteTimeline, Strategy


# --------------------------------------------------------------------------------------
# Lemma 1: immediate rejection is Omega(sqrt(Delta))
# --------------------------------------------------------------------------------------

def lemma1_instance(length: float, epsilon: float, small_multiplier: float = 1.0) -> Instance:
    """The Lemma 1 two-phase instance on a single machine.

    Phase 1 releases ``ceil(1/epsilon)`` jobs of processing time ``L`` at time
    0; phase 2 releases ``Theta(L^2)`` jobs of processing time ``1/L``, one
    every ``1/L`` time units during ``[0, L]``.  The paper's adaptive
    adversary starts phase 2 at the moment the algorithm starts the first long
    job; for *work-conserving* algorithms (every policy in this library) that
    moment is time 0, so the oblivious instance below realises the same hard
    case: a policy that must decide rejections at arrival has already
    committed to a long job when the stream of short jobs appears behind it,
    and the short jobs cannot all be rejected within the budget.

    ``Delta = L^2`` for this instance, so Lemma 1 predicts immediate-rejection
    policies degrade like ``sqrt(Delta) = L`` while the paper's algorithm
    (which may evict the running long job) stays constant-competitive.

    Parameters
    ----------
    length:
        The long processing time ``L`` (must be > 1).
    epsilon:
        The rejection budget the adversary plays against.
    small_multiplier:
        Scales the *number* of short jobs (1.0 reproduces ``L^2`` of them).
    """
    if length <= 1:
        raise InvalidParameterError(f"length must exceed 1, got {length}")
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    num_long = max(2, math.ceil(1.0 / epsilon))
    short_size = 1.0 / length
    num_short = max(1, int(small_multiplier * length * length))

    jobs: list[Job] = []
    job_id = 0
    for _ in range(num_long):
        jobs.append(Job(id=job_id, release=0.0, sizes=(float(length),)))
        job_id += 1
    for k in range(num_short):
        release = (k + 1) * short_size
        jobs.append(Job(id=job_id, release=release, sizes=(short_size,)))
        job_id += 1
    return Instance.single_machine(jobs, name=f"lemma1(L={length:g},eps={epsilon:g})")


def overload_burst_instance(
    num_machines: int,
    burst_jobs: int,
    long_size: float = 50.0,
    short_size: float = 1.0,
    trailing_shorts: int = 200,
) -> Instance:
    """A long-job burst followed by a stream of short jobs (generic stress case).

    At time 0 every machine receives ``burst_jobs`` long jobs; afterwards short
    jobs arrive back-to-back.  Rejection-free non-preemptive policies serve the
    short jobs behind the burst and blow up; the paper's algorithm evicts a
    few long jobs and stays close to optimal.
    """
    if num_machines <= 0 or burst_jobs <= 0:
        raise InvalidParameterError("num_machines and burst_jobs must be positive")
    jobs: list[Job] = []
    job_id = 0
    for _ in range(burst_jobs * num_machines):
        jobs.append(Job.uniform(job_id, 0.0, long_size, num_machines))
        job_id += 1
    for k in range(trailing_shorts):
        release = (k + 1) * short_size / 2.0
        jobs.append(Job.uniform(job_id, release, short_size, num_machines))
        job_id += 1
    return Instance.build(
        num_machines, jobs, name=f"overload(m={num_machines},burst={burst_jobs})"
    )


# --------------------------------------------------------------------------------------
# Lemma 2: adaptive adversary for energy minimisation
# --------------------------------------------------------------------------------------

@dataclass
class Lemma2Round:
    """One round of the Lemma 2 game: the released job and the algorithm's reply."""

    job: Job
    strategy: Strategy
    start_time: float
    completion_time: float
    marginal_energy: float


@dataclass
class Lemma2Result:
    """Outcome of the Lemma 2 adaptive game."""

    alpha: float
    rounds: list[Lemma2Round] = field(default_factory=list)
    algorithm_energy: float = 0.0
    adversary_energy: float = 0.0

    @property
    def ratio(self) -> float:
        """Empirical competitive ratio forced by the adversary."""
        if self.adversary_energy <= 0:
            return math.inf
        return self.algorithm_energy / self.adversary_energy

    @property
    def paper_lower_bound(self) -> float:
        """The Lemma 2 bound ``(alpha/9)^alpha``."""
        return (self.alpha / 9.0) ** self.alpha


class Lemma2Adversary:
    """The adaptive adversary of Lemma 2, playable against any strategy-based scheduler.

    The game: job 1 has window ``[0, 3^(alpha+1)]`` and volume one third of its
    window.  After the algorithm commits to a start time ``S_j`` and completion
    time ``C_j`` for job ``j``, the adversary releases job ``j+1`` with window
    ``[S_j + 1, C_j]`` and volume one third of that window.  The game stops
    after ``alpha`` jobs or when the window length drops to 1.

    The adversary itself can run every job at speed 1 without overlap (each
    job fits outside the sub-window it hands to the next job), so its energy
    is the total volume; the algorithm's jobs all overlap pairwise, forcing a
    high speed somewhere and an Ω((alpha/9)^alpha) ratio.
    """

    def __init__(self, alpha: float, slot_length: float = 1.0) -> None:
        if alpha < 2:
            raise InvalidParameterError(f"alpha must be at least 2, got {alpha}")
        if slot_length <= 0:
            raise InvalidParameterError("slot_length must be positive")
        self.alpha = float(alpha)
        self.slot_length = slot_length

    def play(self, scheduler: ConfigLPEnergyScheduler | None = None) -> Lemma2Result:
        """Run the adaptive game against ``scheduler`` (default: the Theorem 3 greedy)."""
        scheduler = scheduler or ConfigLPEnergyScheduler(slot_length=self.slot_length)
        horizon = 3.0 ** (math.floor(self.alpha) + 1)
        timeline = DiscreteTimeline(
            num_machines=1,
            num_slots=max(1, int(math.ceil(horizon / self.slot_length))),
            slot_length=self.slot_length,
            alpha=self.alpha,
        )
        machine = Machine(0, alpha=self.alpha)
        result = Lemma2Result(alpha=self.alpha)

        release, deadline = 0.0, horizon
        max_jobs = max(1, int(math.floor(self.alpha)))
        job_id = 0
        adversary_energy = 0.0
        while job_id < max_jobs and (deadline - release) > 1.0 + 1e-9:
            volume = (deadline - release) / 3.0
            job = Job(
                id=job_id,
                release=release,
                sizes=(volume,),
                deadline=deadline,
            )
            instance = Instance((machine,), (job,), name=f"lemma2-round-{job_id}")
            strategy, cost = scheduler.best_strategy(job, instance, timeline)
            timeline.commit(strategy)
            start_time = timeline.time_of(strategy.start_slot)
            completion_time = timeline.time_of(strategy.end_slot)
            result.rounds.append(
                Lemma2Round(
                    job=job,
                    strategy=strategy,
                    start_time=start_time,
                    completion_time=completion_time,
                    marginal_energy=cost,
                )
            )
            adversary_energy += volume  # the adversary runs it at speed 1, no overlap
            # Next round's window: inside the execution of the job just placed.
            release, deadline = start_time + 1.0, completion_time
            job_id += 1

        result.algorithm_energy = timeline.total_energy()
        result.adversary_energy = adversary_energy
        return result
