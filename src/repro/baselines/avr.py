"""AVERAGE RATE (AVR) baseline for energy minimisation with deadlines.

AVR (Yao, Demers, Shenker 1995) runs every job at its *density*
``p_j / (d_j - r_j)`` spread uniformly over its feasibility window; the
machine speed at any time is the sum of the densities of the active jobs.
AVR is online, preemptive and allows simultaneous processing, so it is an
optimistic online reference for experiment E4 rather than a feasible
competitor in the paper's non-preemptive model.

For multiple machines, each arriving job is dispatched to the machine where
adding its density rectangle increases the energy the least (the same greedy
marginal-energy criterion as the Section 4 algorithm, applied to the AVR
speed profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import InfeasibleInstanceError, InvalidParameterError
from repro.simulation.instance import Instance


@dataclass
class AVRSchedule:
    """Speed profiles and energy of an AVR run."""

    instance: Instance
    assignment: dict[int, int]
    energy: float
    breakpoints: list[float]


def _interval_energy(profile: list[tuple[float, float, float]], alpha: float) -> float:
    """Energy of a piecewise-constant speed profile given as (start, end, speed).

    Added left to right, as is the stacked speed below: Python 3.12's
    compensated ``sum`` would give other bits than 3.10 and 3.11.
    """
    total = 0
    for start, end, speed in profile:
        if end > start:
            total += (speed**alpha) * (end - start)
    return total


def _profile_from_rectangles(
    rectangles: list[tuple[float, float, float]], breakpoints: list[float]
) -> list[tuple[float, float, float]]:
    """Piecewise-constant profile obtained by stacking density rectangles."""
    profile = []
    for start, end in zip(breakpoints, breakpoints[1:]):
        speed = 0
        for r, dl, d in rectangles:
            if r <= start + 1e-12 and end <= dl + 1e-12:
                speed += d
        profile.append((start, end, speed))
    return profile


def average_rate_schedule(instance: Instance) -> AVRSchedule:
    """Run AVR with greedy marginal-energy dispatching on ``instance``."""
    if not instance.has_deadlines():
        raise InfeasibleInstanceError("AVR requires every job to carry a deadline")
    breakpoints = sorted(
        {job.release for job in instance.jobs}
        | {job.deadline for job in instance.jobs if job.deadline is not None}
    )
    if len(breakpoints) < 2:
        breakpoints = breakpoints + [breakpoints[0] + 1.0] if breakpoints else [0.0, 1.0]

    rectangles: dict[int, list[tuple[float, float, float]]] = {
        i: [] for i in range(instance.num_machines)
    }
    assignment: dict[int, int] = {}
    for job in instance.jobs:  # release order = online order
        best_machine, best_delta = None, math.inf
        for machine in job.eligible_machines():
            alpha = instance.machines[machine].alpha
            density = job.size_on(machine) / job.window()
            before = _interval_energy(
                _profile_from_rectangles(rectangles[machine], breakpoints), alpha
            )
            candidate = rectangles[machine] + [(job.release, job.deadline, density)]
            after = _interval_energy(_profile_from_rectangles(candidate, breakpoints), alpha)
            delta = after - before
            if delta < best_delta:
                best_machine, best_delta = machine, delta
        if best_machine is None:
            raise InvalidParameterError(f"job {job.id} cannot run on any machine")
        density = job.size_on(best_machine) / job.window()
        rectangles[best_machine].append((job.release, job.deadline, density))
        assignment[job.id] = best_machine

    total = 0.0
    for machine, rects in rectangles.items():
        alpha = instance.machines[machine].alpha
        total += _interval_energy(_profile_from_rectangles(rects, breakpoints), alpha)
    return AVRSchedule(
        instance=instance, assignment=assignment, energy=total, breakpoints=breakpoints
    )


def average_rate_energy(instance: Instance) -> float:
    """Total energy of the AVR baseline on ``instance``."""
    return average_rate_schedule(instance).energy
