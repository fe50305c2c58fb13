"""Schedule output containers produced by the simulation engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from repro.exceptions import SimulationError
from repro.simulation.instance import Instance
from repro.simulation.job import trusted_builder


@dataclass(frozen=True, slots=True)
class ExecutionInterval:
    """One contiguous execution of (part of) a job on a machine.

    A non-preemptive schedule has exactly one interval per completed job.
    Jobs rejected by Rule 1 while running leave a truncated interval
    (``completed=False``) that still consumes machine time and, in the
    speed-scaling model, energy.
    """

    machine: int
    job_id: int
    start: float
    end: float
    speed: float = 1.0
    completed: bool = True

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"interval for job {self.job_id} ends before it starts ({self.end} < {self.start})"
            )
        if self.speed <= 0:
            raise SimulationError(f"interval speed must be positive, got {self.speed}")

    @staticmethod
    def trusted(
        machine: int, job_id: int, start: float, end: float, speed: float, completed: bool
    ) -> "ExecutionInterval":
        """The interval built through its slots, with the two checks kept.

        Values that fail a check go through the checked constructor, which
        raises its error; so no invariant is dropped, only ``__init__``'s cost.
        """
        if end < start or speed <= 0:
            return ExecutionInterval(machine, job_id, start, end, speed, completed)
        return _build_interval(machine, job_id, start, end, speed, completed)

    @property
    def duration(self) -> float:
        """Wall-clock length of the interval."""
        return self.end - self.start

    @property
    def work(self) -> float:
        """Processing volume executed during the interval (duration x speed)."""
        return self.duration * self.speed

    def energy(self, alpha: float) -> float:
        """Energy spent over the interval under power ``P(s) = s**alpha``."""
        return (self.speed**alpha) * self.duration


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Final outcome of one job in a simulation.

    Exactly one of the following holds:

    * completed: ``completion`` is set, ``rejected`` is ``False``;
    * rejected: ``rejected`` is ``True`` and ``rejection_time`` is set
      (``completion`` is ``None``);
    * never started nor rejected (only possible for malformed policies); the
      validator flags this case.
    """

    job_id: int
    weight: float
    release: float
    machine: int | None
    start: float | None
    completion: float | None
    rejected: bool
    rejection_time: float | None = None
    rejection_reason: str | None = None

    @property
    def finished(self) -> bool:
        """``True`` when the job completed normally."""
        return self.completion is not None and not self.rejected

    @property
    def flow_time(self) -> float:
        """Flow time as defined by the paper.

        For a completed job this is ``C_j - r_j``; for a rejected job the
        paper defines it as the time between release and rejection.
        """
        if self.rejected:
            if self.rejection_time is None:
                raise SimulationError(f"rejected job {self.job_id} has no rejection time")
            return self.rejection_time - self.release
        if self.completion is None:
            raise SimulationError(f"job {self.job_id} neither completed nor rejected")
        return self.completion - self.release

    @property
    def weighted_flow_time(self) -> float:
        """``w_j * F_j``."""
        return self.weight * self.flow_time


_build_interval = trusted_builder(ExecutionInterval)

#: :class:`JobRecord` built through its slots, every field given: the fused
#: loop and the shared rejection path build with it, and the reference
#: stepper's handlers keep the checked constructor.
JobRecord.trusted = staticmethod(trusted_builder(JobRecord))


@dataclass
class SimulationResult:
    """Everything an engine run produces.

    Attributes
    ----------
    instance:
        The input instance (kept for metric computation and validation).
    records:
        Mapping from job id to its :class:`JobRecord`.
    intervals:
        Every execution interval, in chronological order of start time.
    algorithm:
        Label of the policy that produced the schedule.
    extras:
        Free-form per-algorithm diagnostics (e.g. dual objective values,
        counter statistics); never required by the metrics.
    """

    instance: Instance
    records: dict[int, JobRecord]
    intervals: list[ExecutionInterval]
    algorithm: str = "unknown"
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Instance ids are unique, so every record names a job exactly when
        # as many instance ids have a record as there are records.  The set
        # of ids is built only to name the first unknown one.
        records = self.records
        ids = map(attrgetter("id"), self.instance.jobs)
        if sum(map(records.__contains__, ids)) != len(records):
            job_ids = {job.id for job in self.instance.jobs}
            for job_id in records:
                if job_id not in job_ids:
                    raise SimulationError(f"record for unknown job id {job_id}")

    # -- convenience accessors -----------------------------------------------------

    def record(self, job_id: int) -> JobRecord:
        """Record of a single job."""
        return self.records[job_id]

    def completed_records(self) -> list[JobRecord]:
        """Records of jobs that completed normally."""
        return [r for r in self.records.values() if r.finished]

    def rejected_records(self) -> list[JobRecord]:
        """Records of rejected jobs."""
        return [r for r in self.records.values() if r.rejected]

    def intervals_on(self, machine: int) -> list[ExecutionInterval]:
        """Execution intervals of one machine, sorted by start time."""
        return sorted(
            (iv for iv in self.intervals if iv.machine == machine), key=lambda iv: iv.start
        )

    def makespan(self) -> float:
        """Completion time of the last interval (0 for an empty schedule)."""
        return max((iv.end for iv in self.intervals), default=0.0)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self.records.values())
