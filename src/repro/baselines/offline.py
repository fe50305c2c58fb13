"""Offline references: list-scheduling heuristics and exact brute force.

The paper's competitive ratios are against the offline optimum, which is
NP-hard to compute at scale.  The experiments therefore report ratios against
two kinds of references:

* :func:`offline_list_schedule` — a clairvoyant heuristic (it sees all jobs
  up front) that produces a *feasible* non-preemptive schedule; its cost is an
  upper bound on OPT, so ``ALG / heuristic`` under-estimates the true ratio
  while ``ALG / certified-lower-bound`` over-estimates it.  Reporting both
  brackets the truth.
* :func:`brute_force_optimal_flow_time` / :func:`brute_force_optimal_energy`
  — exact optima by exhaustive search, only usable on tiny instances; the
  test-suite uses them to sanity-check both the heuristics and the bounds.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from repro.exceptions import InfeasibleInstanceError, InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.timeline import DiscreteTimeline
from repro.core.energy_min import ConfigLPEnergyScheduler


# --------------------------------------------------------------------------------------
# Offline list scheduling for total (weighted) flow time
# --------------------------------------------------------------------------------------

def _simulate_fixed_assignment(
    instance: Instance, assignment: dict[int, int], order_key
) -> float:
    """Total flow time when each machine runs its assigned jobs in the given order.

    Jobs are started as early as possible in the order induced by
    ``order_key`` (non-preemptively, respecting release dates).
    """
    total_flow = 0.0
    for machine in range(instance.num_machines):
        assigned = [job for job in instance.jobs if assignment.get(job.id) == machine]
        assigned.sort(key=lambda job: order_key(job, machine))
        speed = instance.machines[machine].speed_factor
        time = 0.0
        for job in assigned:
            start = max(time, job.release)
            completion = start + job.size_on(machine) / speed
            total_flow += completion - job.release
            time = completion
    return total_flow


def offline_list_schedule(instance: Instance, orderings: Sequence[str] = ("spt", "release")) -> float:
    """Best total flow time over a family of clairvoyant list-scheduling heuristics.

    Each heuristic assigns jobs greedily (in the given global ordering) to the
    machine where the job's completion time is smallest given the already
    assigned jobs, then runs every machine's jobs in SPT order.  The minimum
    over the orderings is returned; this is a feasible schedule, hence an
    upper bound on OPT.
    """
    if instance.num_jobs == 0:
        return 0.0
    best = math.inf
    for ordering in orderings:
        if ordering == "spt":
            global_order = sorted(instance.jobs, key=lambda j: (j.min_size(), j.release, j.id))
        elif ordering == "release":
            global_order = sorted(instance.jobs, key=lambda j: (j.release, j.min_size(), j.id))
        else:
            raise InvalidParameterError(f"unknown ordering {ordering!r}")

        machine_time = [0.0] * instance.num_machines
        assignment: dict[int, int] = {}
        for job in global_order:
            best_machine, best_completion = None, math.inf
            for machine in job.eligible_machines():
                speed = instance.machines[machine].speed_factor
                completion = max(machine_time[machine], job.release) + job.size_on(machine) / speed
                if completion < best_completion:
                    best_machine, best_completion = machine, completion
            if best_machine is None:
                raise InvalidParameterError(f"job {job.id} cannot run on any machine")
            assignment[job.id] = best_machine
            machine_time[best_machine] = best_completion

        for order_key in (
            lambda job, machine: (job.size_on(machine), job.release, job.id),
            lambda job, machine: (job.release, job.size_on(machine), job.id),
        ):
            best = min(best, _simulate_fixed_assignment(instance, assignment, order_key))
    return best


def brute_force_optimal_flow_time(instance: Instance, max_jobs: int = 8) -> float:
    """Exact minimum total flow time by exhaustive search (tiny instances only).

    Enumerates every job-to-machine assignment and every per-machine sequence;
    for a fixed sequence, starting each job as early as possible is optimal,
    so the search is exact.  Raises when the instance exceeds ``max_jobs``.
    """
    n = instance.num_jobs
    if n == 0:
        return 0.0
    if n > max_jobs:
        raise InvalidParameterError(
            f"brute force limited to {max_jobs} jobs, instance has {n}"
        )
    jobs = list(instance.jobs)
    machines = range(instance.num_machines)
    best = math.inf
    for assignment_tuple in itertools.product(machines, repeat=n):
        assignment = {job.id: machine for job, machine in zip(jobs, assignment_tuple)}
        if any(
            math.isinf(job.size_on(assignment[job.id])) for job in jobs
        ):
            continue
        total = 0.0
        feasible = True
        for machine in machines:
            assigned = [job for job in jobs if assignment[job.id] == machine]
            if not assigned:
                continue
            speed = instance.machines[machine].speed_factor
            machine_best = math.inf
            for perm in itertools.permutations(assigned):
                time = 0.0
                flow = 0.0
                for job in perm:
                    start = max(time, job.release)
                    completion = start + job.size_on(machine) / speed
                    flow += completion - job.release
                    time = completion
                machine_best = min(machine_best, flow)
            if math.isinf(machine_best):
                feasible = False
                break
            total += machine_best
        if feasible:
            best = min(best, total)
    if math.isinf(best):
        raise InfeasibleInstanceError("no feasible assignment found")
    return best


# --------------------------------------------------------------------------------------
# Offline energy minimisation (Section 4 setting)
# --------------------------------------------------------------------------------------

def brute_force_optimal_energy(
    instance: Instance,
    slot_length: float = 1.0,
    speeds_per_job: int = 8,
    max_jobs: int = 6,
) -> float:
    """Exact minimum energy over the greedy's discrete strategy space.

    Exhaustive depth-first search over per-job strategies with
    branch-and-bound pruning.  The strategy space (slot-aligned speeds) is the
    one a :class:`~repro.core.energy_min.ConfigLPEnergyScheduler` with the
    same ``slot_length`` and ``speeds_per_job`` uses.  Only then is the
    returned value the discretised offline optimum that greedy should be
    compared against.  The default of 8 speeds keeps the search small; the
    scheduler's own default is 16, so pass its ``speeds_per_job`` to compare
    against it.
    """
    if instance.num_jobs > max_jobs:
        raise InvalidParameterError(
            f"brute force limited to {max_jobs} jobs, instance has {instance.num_jobs}"
        )
    scheduler = ConfigLPEnergyScheduler(slot_length=slot_length, speeds_per_job=speeds_per_job)
    timeline = DiscreteTimeline.for_instance(
        instance, slot_length=scheduler.effective_slot_length(instance)
    )
    all_strategies = []
    for job in instance.jobs:
        options = []
        for machine in job.eligible_machines():
            speeds = scheduler.candidate_speeds(job, machine, timeline)
            options.extend(timeline.feasible_strategies(job, machine, speeds))
        if not options:
            raise InfeasibleInstanceError(f"job {job.id} has no feasible strategy")
        all_strategies.append(options)

    best = math.inf

    def dfs(index: int, timeline_state: DiscreteTimeline, energy_so_far: float) -> None:
        nonlocal best
        if energy_so_far >= best:
            return
        if index == len(all_strategies):
            best = energy_so_far
            return
        for strategy in all_strategies[index]:
            delta = timeline_state.marginal_energy(
                strategy.machine, strategy.start_slot, strategy.slots, strategy.speed
            )
            if energy_so_far + delta >= best:
                continue
            timeline_state.commit(strategy)
            dfs(index + 1, timeline_state, energy_so_far + delta)
            # Undo the commit by subtracting the speed again (clipping the
            # floating-point residue so later power evaluations stay clean).
            window = timeline_state._speeds[
                strategy.machine, strategy.start_slot : strategy.end_slot
            ]
            window -= strategy.speed
            window[window < 0.0] = 0.0

    dfs(0, timeline, 0.0)
    if math.isinf(best):
        raise InfeasibleInstanceError("no feasible combination of strategies found")
    return best
