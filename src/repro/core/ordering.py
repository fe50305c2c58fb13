"""Precedence orders used by the paper's algorithms.

Section 2 orders the pending jobs of a machine (excluding the running job) by
**non-decreasing processing time** on that machine, breaking ties by earliest
release time; a job ``j`` *precedes* ``l`` (written ``j ≺ l``) when it appears
earlier in this order.  Section 3 uses **non-increasing density**
``delta_ij = w_j / p_ij`` with the same tie-breaking.

Both orders additionally break remaining ties by job id so that the
implementation is fully deterministic.
"""

from __future__ import annotations

from typing import Iterable

from repro.simulation.job import Job


def spt_key(job: Job, machine: int) -> tuple[float, float, int]:
    """Sort key realising the Section 2 order (shortest processing time first)."""
    return (job.size_on(machine), job.release, job.id)


def density_key(job: Job, machine: int) -> tuple[float, float, int]:
    """Sort key realising the Section 3 order (highest density first)."""
    return (-job.density_on(machine), job.release, job.id)


def split_by_precedence(
    job: Job, others: Iterable[Job], machine: int, weighted: bool = False
) -> tuple[list[Job], list[Job]]:
    """Split ``others`` into (preceding-or-equal, succeeding) relative to ``job``.

    ``weighted`` selects the density order of Section 3 instead of the SPT
    order of Section 2.  The job itself is never included in either part.
    """
    key_fn = density_key if weighted else spt_key
    key = key_fn(job, machine)
    preceding: list[Job] = []
    succeeding: list[Job] = []
    for other in others:
        if other.id == job.id:
            continue
        if key_fn(other, machine) <= key:
            preceding.append(other)
        else:
            succeeding.append(other)
    return preceding, succeeding
