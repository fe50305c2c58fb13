"""Campaign execution: fan tasks out over worker processes, cache results.

The runner is deliberately simple and crash-safe:

1. partition the task list into *cached* (artifact already in the store) and
   *pending* (must run);
2. run the pending tasks — in-process when ``workers <= 1``, otherwise via a
   :class:`multiprocessing.Pool` mapping the module-level
   :func:`~repro.campaigns.tasks.run_task` over picklable tasks;
3. the parent process alone writes artifacts (workers only compute), so the
   store never sees concurrent writers;
4. aggregation always reads back from the store, so a fully cached re-run
   produces exactly the same report as the run that computed it.

The fan-out itself (:func:`run_mapped`) is generic — timed, index-tagged,
streaming results as workers finish; :meth:`CampaignRunner.run` is its
caller.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.campaigns.store import ArtifactStore
from repro.campaigns.tasks import CampaignTask, run_task
from repro.exceptions import InvalidParameterError


def _run_indexed(packed: "tuple[int, Callable, object]") -> tuple[int, object, float]:
    """Worker entry point: apply ``fn`` to one item, timed, index-tagged.

    Module-level so :mod:`multiprocessing` pickles it by reference; ``fn``
    itself must also be a module-level callable for the same reason.
    """
    index, fn, item = packed
    started = time.perf_counter()
    result = fn(item)
    return index, result, time.perf_counter() - started


def run_mapped(
    items: Sequence, fn: Callable, workers: int = 1
) -> Iterator[tuple[int, object, float]]:
    """Map a picklable ``fn`` over ``items`` across worker processes.

    Yields ``(index, fn(items[index]), duration_s)`` as items finish —
    in submission order when ``workers == 1`` (everything runs in-process),
    unordered otherwise (``imap_unordered`` streams results so the consumer
    can persist each one the moment it lands; a crash or interrupt loses
    only the work still in flight).  The index ties a result back to its
    item, so callers stay order-independent.  Workers only compute; any
    writing is the consumer's job, which keeps single-writer invariants
    (e.g. the artifact store's) intact.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if not items:
        return
    if workers == 1 or len(items) == 1:
        for index, item in enumerate(items):
            started = time.perf_counter()
            yield index, fn(item), time.perf_counter() - started
        return
    with multiprocessing.Pool(processes=min(workers, len(items))) as pool:
        yield from pool.imap_unordered(
            _run_indexed, [(index, fn, item) for index, item in enumerate(items)]
        )


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task during a campaign run."""

    task: CampaignTask
    key: str
    cached: bool
    duration_s: float | None = None


@dataclass
class CampaignRunSummary:
    """Bookkeeping for one :meth:`CampaignRunner.run` invocation."""

    outcomes: list[TaskOutcome] = field(default_factory=list)
    workers: int = 1
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
            f"in {self.wall_time_s:.2f}s with {self.workers} worker(s)"
        )


class CampaignRunner:
    """Runs campaign tasks against an artifact store, skipping cached ones."""

    def __init__(self, store: ArtifactStore, workers: int = 1):
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.workers = workers

    def run(self, tasks: list[CampaignTask], progress=None) -> CampaignRunSummary:
        """Execute ``tasks``, reusing cached artifacts; returns the summary.

        ``progress`` is an optional callable receiving one line per finished
        task (used by the CLI; tests pass a list's ``append``).
        """
        start = time.perf_counter()
        summary = CampaignRunSummary(workers=self.workers)
        keyed = [(task, task.key()) for task in tasks]
        seen: set[str] = set()
        pending: list[tuple[CampaignTask, str]] = []
        for task, key in keyed:
            if self.store.has(key):
                summary.outcomes.append(TaskOutcome(task=task, key=key, cached=True))
                self._note(progress, f"cached   {task.label} [{key}]")
            elif key in seen:
                # Duplicate config inside one grid: computed once, reported once.
                summary.outcomes.append(TaskOutcome(task=task, key=key, cached=True))
            else:
                seen.add(key)
                pending.append((task, key))

        for task, key, payload, duration in self._execute(pending):
            self.store.save(key, payload)
            summary.outcomes.append(
                TaskOutcome(task=task, key=key, cached=False, duration_s=duration)
            )
            self._note(progress, f"computed {task.label} [{key}] ({duration:.2f}s)")

        summary.wall_time_s = time.perf_counter() - start
        return summary

    def _execute(self, pending: list[tuple[CampaignTask, str]]):
        """Yield ``(task, key, payload, duration_s)`` for every pending task."""
        tasks = [task for task, _ in pending]
        for index, payload, duration in run_mapped(tasks, run_task, workers=self.workers):
            task, key = pending[index]
            yield task, key, payload, duration

    @staticmethod
    def _note(progress, line: str) -> None:
        if progress is not None:
            progress(line)
