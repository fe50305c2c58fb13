"""Campaign execution: compute every task whose artifact is missing.

A task's artifact is a function of its key, so running a grid needs one
loop: a task whose artifact is stored counts as cached, every other task
runs :func:`~repro.campaigns.tasks.run_task` and its payload is saved
atomically (:meth:`ArtifactStore.save`).  An interrupted run leaves only
whole artifacts, and re-running the grid resumes it: exactly the missing
tasks are computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.campaigns.store import ArtifactStore
from repro.campaigns.tasks import CampaignTask, run_task


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task during a campaign run."""

    task: CampaignTask
    key: str
    cached: bool
    duration_s: float | None = None


@dataclass
class CampaignRunSummary:
    """Bookkeeping for one campaign run: one outcome per task, in grid order."""

    outcomes: list[TaskOutcome] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def computed(self) -> int:
        return self.total - self.cached

    @property
    def cache_hit_fraction(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def describe(self) -> str:
        """One-line human summary, e.g. ``9 tasks: 0 computed, 9 cached (100% cache hits)``."""
        return (
            f"{self.total} tasks: {self.computed} computed, {self.cached} cached "
            f"({100 * self.cache_hit_fraction:.0f}% cache hits) "
            f"in {self.wall_time_s:.2f}s"
        )


def run_campaign(
    tasks: Sequence[CampaignTask],
    store: ArtifactStore,
    *,
    progress=None,
) -> CampaignRunSummary:
    """Run ``tasks`` in grid order, computing each one missing from ``store``.

    A config repeated inside the grid is computed once and counts as cached
    at its later positions.  ``progress``, if given, receives one line per
    task.
    """
    start = time.perf_counter()
    outcomes = []
    for task in tasks:
        key = task.key()
        if store.has(key):
            outcomes.append(TaskOutcome(task=task, key=key, cached=True))
            line = f"cached   {task.label} [{key}]"
        else:
            started = time.perf_counter()
            store.save(key, run_task(task))
            duration = time.perf_counter() - started
            outcomes.append(TaskOutcome(task=task, key=key, cached=False, duration_s=duration))
            line = f"computed {task.label} [{key}] ({duration:.2f}s)"
        if progress is not None:
            progress(line)
    return CampaignRunSummary(outcomes=outcomes, wall_time_s=time.perf_counter() - start)
