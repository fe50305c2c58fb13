"""Post-hoc validation of simulated schedules.

Validators re-check, from the raw execution intervals and job records, that a
result obeys the execution model the paper assumes.  They are used throughout
the test suite and can be enabled in experiments for defence in depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import ScheduleValidationError
from repro.simulation.schedule import SimulationResult
from repro.utils.numeric import EPS


@dataclass
class ValidationReport:
    """Outcome of a validation pass: collected violations (empty = valid)."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when no violation was found."""
        return not self.violations

    def add(self, message: str) -> None:
        """Record a violation."""
        self.violations.append(message)

    def raise_if_invalid(self) -> None:
        """Raise :class:`ScheduleValidationError` when violations exist."""
        if self.violations:
            raise ScheduleValidationError(
                f"{len(self.violations)} violation(s): " + "; ".join(self.violations[:10])
            )


def validate_result(
    result: SimulationResult,
    tol: float = 1e-6,
    require_deadlines: bool = False,
    raise_on_error: bool = True,
) -> ValidationReport:
    """Check a simulation result against the non-preemptive execution model.

    Verified properties:

    1. every job either completed or was rejected, never both;
    2. no machine runs two jobs at overlapping times;
    3. no job starts before its release date;
    4. every *completed* job has exactly one execution interval whose length
       matches its processing requirement on the machine it ran on;
    5. rejected jobs have at most one (truncated) interval;
    6. with ``require_deadlines``, completed jobs finish by their deadline.

    Returns the :class:`ValidationReport`; raises on violations when
    ``raise_on_error`` is true.
    """
    report = ValidationReport()
    instance = result.instance
    jobs = {job.id: job for job in instance.jobs}

    # 1. Record consistency.
    for job in instance.jobs:
        record = result.records.get(job.id)
        if record is None:
            report.add(f"job {job.id} has no record")
            continue
        if record.rejected and record.completion is not None:
            report.add(f"job {job.id} both rejected and completed")
        if not record.rejected and record.completion is None:
            report.add(f"job {job.id} neither rejected nor completed")
        if record.rejected and record.rejection_time is None:
            report.add(f"job {job.id} rejected without a rejection time")
        if record.rejected and record.rejection_time is not None:
            if record.rejection_time + tol < job.release:
                report.add(f"job {job.id} rejected before its release")

    # 2. Machine capacity: intervals on one machine must not overlap.
    for machine in range(instance.num_machines):
        ivs = result.intervals_on(machine)
        for prev, nxt in zip(ivs, ivs[1:]):
            if nxt.start + tol < prev.end:
                report.add(
                    f"machine {machine}: interval of job {nxt.job_id} starting at {nxt.start} "
                    f"overlaps job {prev.job_id} ending at {prev.end}"
                )

    # 3-5. Per-job interval accounting.
    intervals_by_job: dict[int, list] = {}
    for iv in result.intervals:
        intervals_by_job.setdefault(iv.job_id, []).append(iv)

    for job_id, ivs in intervals_by_job.items():
        job = jobs.get(job_id)
        if job is None:
            report.add(f"interval for unknown job {job_id}")
            continue
        record = result.records.get(job_id)
        for iv in ivs:
            if iv.start + tol < job.release:
                report.add(f"job {job_id} started at {iv.start} before release {job.release}")
        if record is None:
            continue
        if record.finished:
            if len(ivs) != 1:
                report.add(f"completed job {job_id} has {len(ivs)} intervals (non-preemptive!)")
            else:
                iv = ivs[0]
                required = job.size_on(iv.machine)
                executed = iv.work
                if not math.isclose(executed, required, rel_tol=1e-6, abs_tol=tol):
                    report.add(
                        f"completed job {job_id} executed {executed} units of work, "
                        f"needs {required} on machine {iv.machine}"
                    )
                if record.completion is not None and abs(iv.end - record.completion) > tol:
                    report.add(
                        f"completed job {job_id}: interval ends at {iv.end} but record says "
                        f"{record.completion}"
                    )
        elif record.rejected:
            if len(ivs) > 1:
                report.add(f"rejected job {job_id} has {len(ivs)} intervals")
            for iv in ivs:
                if iv.completed:
                    report.add(f"rejected job {job_id} has a completed interval")

    # 6. Deadlines (energy-minimisation model).
    if require_deadlines:
        for record in result.completed_records():
            job = jobs[record.job_id]
            if job.deadline is None:
                report.add(f"job {record.job_id} has no deadline but deadlines are required")
            elif record.completion is not None and record.completion > job.deadline + tol:
                report.add(
                    f"job {record.job_id} completes at {record.completion} after deadline "
                    f"{job.deadline}"
                )

    if raise_on_error:
        report.raise_if_invalid()
    return report


def assert_rejection_budget(
    result: SimulationResult,
    max_fraction: float,
    weighted: bool = False,
    tol: float = EPS,
) -> None:
    """Assert the rejection budget of the paper's theorems.

    ``max_fraction`` is ``2 * epsilon`` for Theorem 1 (count fraction) and
    ``epsilon`` for Theorem 2 (weight fraction, ``weighted=True``).
    """
    if weighted:
        total = 0
        rejected = 0
        for r in result.records.values():
            total += r.weight
            if r.rejected:
                rejected += r.weight
    else:
        total = float(len(result.records))
        rejected = float(sum(1 for r in result.records.values() if r.rejected))
    if total == 0:
        return
    fraction = rejected / total
    if fraction > max_fraction + tol:
        raise ScheduleValidationError(
            f"rejection budget exceeded: rejected fraction {fraction:.4f} > {max_fraction:.4f}"
        )
