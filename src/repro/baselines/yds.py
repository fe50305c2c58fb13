"""YDS: the optimal preemptive single-machine energy schedule.

Yao, Demers and Shenker's algorithm computes the minimum-energy *preemptive*
speed-scaled schedule of jobs with release dates and deadlines on a single
machine with a convex power function.  Because preemption only helps, its
energy is a certified lower bound on the optimal *non-preemptive* schedule,
which is how experiment E4/E5 uses it (single-machine instances).

Algorithm: repeatedly find the maximum-intensity interval
``I = [t1, t2]`` — the interval maximising ``(sum of volumes of jobs whose
window fits inside I) / (t2 - t1)`` — run exactly those jobs at that constant
intensity inside ``I``, then remove the jobs and contract the interval out of
the time axis; repeat until no jobs remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import InfeasibleInstanceError, InvalidParameterError
from repro.simulation.instance import Instance


@dataclass
class YDSBlock:
    """One critical interval selected by YDS: its span, speed and jobs."""

    start: float
    end: float
    speed: float
    job_ids: list[int] = field(default_factory=list)

    @property
    def length(self) -> float:
        """Length of the critical interval (in original time units)."""
        return self.end - self.start


@dataclass
class YDSSchedule:
    """The full YDS decomposition and its energy."""

    blocks: list[YDSBlock]
    alpha: float

    @property
    def energy(self) -> float:
        """Total energy ``sum speed^alpha * length`` over the critical blocks.

        Added left to right: Python 3.12's compensated ``sum`` would give
        other bits than 3.10 and 3.11.
        """
        total = 0
        for b in self.blocks:
            total += (b.speed**self.alpha) * b.length
        return total

    def max_speed(self) -> float:
        """Largest speed used (the first block's speed, by construction)."""
        return max((b.speed for b in self.blocks), default=0.0)


def yds_schedule(
    jobs: list[tuple[int, float, float, float]] | None = None,
    instance: Instance | None = None,
    alpha: float | None = None,
) -> YDSSchedule:
    """Compute the YDS decomposition.

    Either pass ``jobs`` as ``(job_id, release, deadline, volume)`` tuples plus
    ``alpha``, or pass a single-machine :class:`Instance` (volumes are taken on
    machine 0 and alpha from that machine).
    """
    if instance is not None:
        if instance.num_machines != 1:
            raise InvalidParameterError("yds_schedule accepts only single-machine instances")
        if not instance.has_deadlines():
            raise InfeasibleInstanceError("YDS requires every job to carry a deadline")
        alpha = instance.machines[0].alpha
        jobs = [(job.id, job.release, float(job.deadline), job.size_on(0)) for job in instance.jobs]
    if jobs is None or alpha is None:
        raise InvalidParameterError("provide either jobs+alpha or an instance")

    remaining = [(jid, float(r), float(d), float(p)) for jid, r, d, p in jobs]
    for jid, r, d, p in remaining:
        if d <= r:
            raise InfeasibleInstanceError(f"job {jid} has an empty window [{r}, {d}]")
        if p <= 0:
            raise InvalidParameterError(f"job {jid} has non-positive volume {p}")

    blocks: list[YDSBlock] = []
    while remaining:
        times = sorted({r for _, r, _, _ in remaining} | {d for _, _, d, _ in remaining})
        best_intensity = -1.0
        best_span: tuple[float, float] | None = None
        best_jobs: list[int] = []
        for i, t1 in enumerate(times):
            for t2 in times[i + 1 :]:
                inside = [job for job in remaining if job[1] >= t1 - 1e-12 and job[2] <= t2 + 1e-12]
                if not inside:
                    continue
                volume = 0  # left to right, the same bits on every Python
                for job in inside:
                    volume += job[3]
                intensity = volume / (t2 - t1)
                if intensity > best_intensity + 1e-12:
                    best_intensity = intensity
                    best_span = (t1, t2)
                    best_jobs = [job[0] for job in inside]
        if best_span is None:
            # No job window is fully contained in any candidate interval; this
            # cannot happen for well-formed windows.
            raise InfeasibleInstanceError("YDS could not find a critical interval")

        t1, t2 = best_span
        blocks.append(
            YDSBlock(start=t1, end=t2, speed=best_intensity, job_ids=sorted(best_jobs))
        )
        chosen = set(best_jobs)
        contracted = []
        length = t2 - t1
        for jid, r, d, p in remaining:
            if jid in chosen:
                continue
            # Contract the critical interval out of the remaining jobs' windows.
            new_r = r if r <= t1 else (t1 if r <= t2 else r - length)
            new_d = d if d <= t1 else (t1 if d <= t2 else d - length)
            if new_d <= new_r:
                new_d = new_r + 1e-9
            contracted.append((jid, new_r, new_d, p))
        remaining = contracted

    return YDSSchedule(blocks=blocks, alpha=float(alpha))


def yds_energy(instance: Instance) -> float:
    """Energy of the optimal preemptive schedule of a single-machine instance."""
    return yds_schedule(instance=instance).energy
