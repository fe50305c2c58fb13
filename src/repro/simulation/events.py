"""Event queue for the discrete-event engines.

Both engines process two kinds of events: job arrivals and job completions.
Completions can become stale when the running job is rejected mid-execution
(Rejection Rule 1 of the paper interrupts the running job); stale events are
invalidated with per-machine version stamps rather than removed from the heap,
the standard lazy-deletion idiom for :mod:`heapq`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import IntEnum

from repro.exceptions import SimulationError


class EventKind(IntEnum):
    """Kinds of events, ordered so simultaneous events process deterministically.

    At equal timestamps completions are handled before arrivals: a machine
    that finishes exactly when a new job arrives is idle from the arriving
    job's point of view, matching the paper's convention that ``U_i(t)``
    contains only unfinished jobs.
    """

    COMPLETION = 0
    ARRIVAL = 1


@dataclass(frozen=True, slots=True)
class Event:
    """A single simulator event.

    ``machine``/``version`` are only meaningful for completions; ``job_id``
    identifies the arriving or completing job.
    """

    time: float
    kind: EventKind
    job_id: int
    machine: int = -1
    version: int = -1


class EventQueue:
    """A time-ordered queue of :class:`Event` objects backed by ``heapq``.

    Ordering key is ``(time, kind, sequence)``: earlier times first, then
    completions before arrivals, then insertion order for determinism.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Insert an event."""
        if event.time < 0:
            raise SimulationError(f"event time must be non-negative, got {event.time}")
        heapq.heappush(self._heap, (event.time, int(event.kind), next(self._counter), event))

    def push_arrival(self, time: float, job_id: int) -> None:
        """Insert a job-arrival event."""
        self.push(Event(time=time, kind=EventKind.ARRIVAL, job_id=job_id))

    def push_completion(self, time: float, job_id: int, machine: int, version: int) -> None:
        """Insert a job-completion event carrying the machine's version stamp."""
        self.push(
            Event(
                time=time,
                kind=EventKind.COMPLETION,
                job_id=job_id,
                machine=machine,
                version=version,
            )
        )

    def pop(self) -> Event:
        """Remove and return the next event in time order."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> float:
        """Timestamp of the next event without removing it."""
        if not self._heap:
            raise SimulationError("peek on an empty event queue")
        return self._heap[0][0]
