"""Scheduling instance: a machine fleet plus an ordered list of jobs.

An :class:`Instance` is the immutable input handed to every scheduler,
baseline and lower-bound computation in the library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import InvalidInstanceError
from repro.simulation.job import Job
from repro.simulation.machine import Machine


@dataclass(frozen=True)
class InstanceStats:
    """Summary statistics of an instance used in reports and workload suites."""

    num_jobs: int
    num_machines: int
    min_size: float
    max_size: float
    delta: float
    total_min_size: float
    total_weight: float
    makespan_lower_bound: float
    has_deadlines: bool
    max_release: float


@dataclass(frozen=True)
class Instance:
    """An unrelated-machine scheduling instance.

    Parameters
    ----------
    machines:
        The machine fleet; indices must be ``0..m-1`` in order.
    jobs:
        Jobs sorted by non-decreasing release date (ties allowed).  Each job's
        size vector must have exactly ``len(machines)`` entries.
    name:
        Optional human-readable label used in experiment reports.
    """

    machines: tuple[Machine, ...]
    jobs: tuple[Job, ...]
    name: str = "instance"

    def __post_init__(self) -> None:
        if not self.machines:
            raise InvalidInstanceError("instance needs at least one machine")
        for expected, machine in enumerate(self.machines):
            if machine.id != expected:
                raise InvalidInstanceError(
                    f"machine ids must be consecutive from 0; position {expected} has id {machine.id}"
                )
        m = len(self.machines)
        seen: set[int] = set()
        prev_release = -math.inf
        for job in self.jobs:
            if len(job.sizes) != m:
                raise InvalidInstanceError(
                    f"job {job.id}: size vector has {len(job.sizes)} entries, expected {m}"
                )
            if job.id in seen:
                raise InvalidInstanceError(f"duplicate job id {job.id}")
            seen.add(job.id)
            if job.release < prev_release:
                raise InvalidInstanceError(
                    "jobs must be sorted by non-decreasing release date "
                    f"(job {job.id} released at {job.release} after {prev_release})"
                )
            prev_release = job.release

    # -- basic properties ----------------------------------------------------------

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return len(self.machines)

    @property
    def num_jobs(self) -> int:
        """Number of jobs ``n``."""
        return len(self.jobs)

    @property
    def total_weight(self) -> float:
        """Sum of job weights."""
        total = 0
        for job in self.jobs:
            total += job.weight
        return total

    def job_by_id(self, job_id: int) -> Job:
        """Return the job with the given id (O(n); cached lookups belong to engines)."""
        for job in self.jobs:
            if job.id == job_id:
                return job
        raise KeyError(f"no job with id {job_id}")

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    # -- derived statistics --------------------------------------------------------

    def finite_sizes(self) -> list[float]:
        """All finite entries of the processing-time matrix."""
        return [p for job in self.jobs for p in job.sizes if math.isfinite(p)]

    def delta(self) -> float:
        """Ratio of the maximum over the minimum finite processing time (Δ)."""
        sizes = self.finite_sizes()
        if not sizes:
            return 1.0
        return max(sizes) / min(sizes)

    def stats(self) -> InstanceStats:
        """Aggregate statistics used by workload suites and reports."""
        sizes = self.finite_sizes()
        total_min = 0
        for job in self.jobs:
            total_min += job.min_size()
        return InstanceStats(
            num_jobs=self.num_jobs,
            num_machines=self.num_machines,
            min_size=min(sizes) if sizes else 0.0,
            max_size=max(sizes) if sizes else 0.0,
            delta=self.delta(),
            total_min_size=total_min,
            total_weight=self.total_weight,
            makespan_lower_bound=total_min / self.num_machines,
            has_deadlines=all(job.deadline is not None for job in self.jobs)
            and self.num_jobs > 0,
            max_release=max((job.release for job in self.jobs), default=0.0),
        )

    def has_deadlines(self) -> bool:
        """``True`` when every job carries a deadline (Section 4 instances)."""
        return self.num_jobs > 0 and all(job.deadline is not None for job in self.jobs)

    def horizon(self) -> float:
        """A safe upper bound on the time by which any reasonable schedule ends.

        Sum of the largest release date and the total of worst-case finite
        processing times; used to size discrete timelines and LP horizons.
        """
        total_worst = 0
        for job in self.jobs:
            total_worst += max((p for p in job.sizes if math.isfinite(p)), default=0.0)
        max_release = max((job.release for job in self.jobs), default=0.0)
        max_deadline = max(
            (job.deadline for job in self.jobs if job.deadline is not None), default=0.0
        )
        return max(max_release + total_worst, max_deadline)

    # -- transformations -----------------------------------------------------------

    def with_machines(self, machines: Sequence[Machine]) -> "Instance":
        """Return a copy of the instance with a replaced machine fleet.

        The number of machines must not change (job size vectors keep their
        meaning); used to apply speed augmentation or change alpha.
        """
        if len(machines) != self.num_machines:
            raise InvalidInstanceError(
                "with_machines cannot change the number of machines "
                f"({len(machines)} != {self.num_machines})"
            )
        return Instance(tuple(machines), self.jobs, self.name)

    def with_speed_factor(self, speed_factor: float) -> "Instance":
        """Copy of the instance whose machines all run ``speed_factor`` times faster."""
        machines = tuple(
            Machine(m.id, speed_factor=m.speed_factor * speed_factor, alpha=m.alpha)
            for m in self.machines
        )
        return self.with_machines(machines)

    def with_alpha(self, alpha: float) -> "Instance":
        """Copy of the instance with every machine's power exponent set to ``alpha``."""
        machines = tuple(
            Machine(m.id, speed_factor=m.speed_factor, alpha=alpha) for m in self.machines
        )
        return self.with_machines(machines)

    def with_name(self, name: str) -> "Instance":
        """Copy of the instance with a new label."""
        return Instance(self.machines, self.jobs, name)

    def restrict_jobs(self, predicate: Callable[[Job], bool], name: str | None = None) -> "Instance":
        """Instance containing only the jobs satisfying ``predicate``."""
        jobs = tuple(job for job in self.jobs if predicate(job))
        return Instance(self.machines, jobs, name or self.name)

    def prefix(self, count: int) -> "Instance":
        """Instance containing only the first ``count`` jobs (release order)."""
        return Instance(self.machines, self.jobs[:count], f"{self.name}[:{count}]")

    # -- construction --------------------------------------------------------------

    @staticmethod
    def build(
        machines: Sequence[Machine] | int,
        jobs: Iterable[Job],
        name: str = "instance",
    ) -> "Instance":
        """Build an instance, sorting jobs by release date.

        ``machines`` may be an integer (a fleet of identical unit machines is
        created) or an explicit sequence of :class:`Machine`.
        """
        if isinstance(machines, int):
            fleet = Machine.fleet(machines)
        else:
            fleet = tuple(machines)
        ordered = tuple(sorted(jobs, key=lambda j: (j.release, j.id)))
        return Instance(fleet, ordered, name)

    @staticmethod
    def single_machine(jobs: Iterable[Job], name: str = "single-machine", alpha: float = 3.0) -> "Instance":
        """Convenience constructor for one-machine instances (Lemma 1 / Lemma 2)."""
        return Instance.build((Machine(0, alpha=alpha),), jobs, name)

    @staticmethod
    def trusted(
        machines: tuple[Machine, ...], jobs: tuple[Job, ...], name: str = "instance"
    ) -> "Instance":
        """Construct an instance **without** the ``__post_init__`` validation.

        The counterpart of :meth:`Job.trusted` for producers that already
        enforce the instance invariants incrementally — the streaming
        session validates machine count, release ordering and id uniqueness
        per submission, so re-scanning all jobs at finalize time would be
        pure overhead.  Callers are responsible for upholding the invariants.
        """
        instance = object.__new__(Instance)
        object.__setattr__(instance, "machines", machines)
        object.__setattr__(instance, "jobs", jobs)
        object.__setattr__(instance, "name", name)
        return instance

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict representation (JSON-serialisable)."""
        return {
            "name": self.name,
            "machines": [m.to_dict() for m in self.machines],
            "jobs": [j.to_dict() for j in self.jobs],
        }

    @staticmethod
    def from_dict(data: Mapping) -> "Instance":
        """Inverse of :meth:`to_dict`."""
        machines = tuple(Machine.from_dict(m) for m in data["machines"])
        jobs = tuple(Job.from_dict(j) for j in data["jobs"])
        return Instance(machines, jobs, str(data.get("name", "instance")))

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(payload: str) -> "Instance":
        """Deserialise from :meth:`to_json` output."""
        return Instance.from_dict(json.loads(payload))
