"""Indexed pending-set state: lazily-invalidated per-machine priority heaps.

The paper's online schedulers repeatedly answer one question per idle
machine: *which pending job is first in my local order?*  The reference
implementation answers it with a linear scan (``min(pending, ...)``), which
is O(queue length) per start and caps practical instance sizes.  For every
shipped policy the local order is **static** — the comparison key of a job on
a machine (SPT triple, density triple, release order) never changes while the
job waits — so the argmin can instead be maintained in a binary heap per
machine:

* when the engine dispatches a job to a machine it pushes ``(key, job)`` onto
  that machine's heap (O(log q));
* when a job leaves the pending set (started or rejected) **nothing** is done
  — the heap entry goes stale and is skipped the next time it surfaces, the
  standard lazy-deletion idiom (also used by the engines' version-stamped
  completion events);
* :meth:`IndexedPending.argmin` pops stale heads until the head is live and
  returns it without removing it (the job stays pending until the engine
  says otherwise).

Every job is pushed exactly once per dispatch and popped at most once, so the
total index cost over a run is O(n log n) regardless of rejection pattern.

Keys come from the policy's ``priority_key(job, machine)`` hook and must be
totally ordered and **unique** — every shipped key ends in ``job.id``, which
both guarantees uniqueness and realises the deterministic ``(key, job.id)``
tie-break of the scan path, so indexing changes *how* the argmin is found but
never *which* job wins.  Policies whose keys change over time (none shipped)
simply keep ``priority_key = None`` and fall back to scan semantics.

The module also holds the order statistics of the Theorem 1 dispatch rule:
:class:`PendingPrefixStats`, per-machine Fenwick trees over the SPT ranks of
:func:`build_priority_ranks`.  The ranks of a universe of n jobs on m
machines are one ``id -> row`` dict shared by every machine and one flat
row-major ``array('q')`` of n·m ranks: 8 bytes per (job, machine) plus one
dict entry per job.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Container, Sequence

from repro.simulation.job import Job

__all__ = ["IndexedPending", "PendingPrefixStats", "build_priority_ranks"]


class IndexedPending:
    """Per-machine min-heaps over pending jobs, invalidated lazily.

    Parameters
    ----------
    num_machines:
        Size of the machine fleet; machine indices are ``0..m-1``.
    key_fn:
        The policy's static priority key ``key_fn(job, machine)``.  Must be
        unique per (job, machine) — shipped keys end in ``job.id``.
    """

    __slots__ = ("key_fn", "_heaps")

    def __init__(self, num_machines: int, key_fn: Callable[[Job, int], tuple]) -> None:
        self.key_fn = key_fn
        self._heaps: list[list[tuple[tuple, Job]]] = [[] for _ in range(num_machines)]

    def push(self, machine: int, job: Job) -> None:
        """Record that ``job`` became pending on ``machine``."""
        heappush(self._heaps[machine], (self.key_fn(job, machine), job))

    def argmin(self, machine: int, live: Container[int]) -> Job | None:
        """The live pending job with the smallest key on ``machine``.

        ``live`` is the machine's authoritative pending dict (membership by
        job id); stale heap heads — jobs that started or were rejected since
        they were pushed — are discarded on the way.  Returns ``None`` when
        nothing live remains in the heap (the caller checks the pending dict
        first, so this only happens if a job was dispatched without being
        pushed).
        """
        heap = self._heaps[machine]
        while heap:
            job = heap[0][1]
            if job.id in live:
                return job
            heappop(heap)
        return None

    def heap_size(self, machine: int) -> int:
        """Number of heap entries (live + stale) for ``machine`` — test hook."""
        return len(self._heaps[machine])


def build_priority_ranks(
    jobs: "Sequence[Job]", num_machines: int
) -> tuple[dict[int, int], "array[int]"]:
    """Rank of every job on every machine in the SPT order ``(size, release, id)``.

    Returns ``(rows, ranks)``: ``rows`` maps each job id to its position in
    ``jobs``, one dict shared by every machine, and ``ranks`` is one
    row-major ``array('q')`` of ``len(jobs) * num_machines`` ranks, read as
    ``ranks[rows[job_id] * num_machines + machine]``.  A rank is the
    position of the job in the sorted order of
    :func:`~repro.core.ordering.spt_key` over *all* given jobs on that
    machine.  Keys are unique (they end in ``job.id``), so ranks are a
    faithful integer encoding of the order: ``rank(a) < rank(b)  <=>
    spt_key(a) < spt_key(b)``.  Every policy that sets ``wants_prefix_stats``
    ranks its pending set this way, which is the order
    :meth:`~repro.simulation.state.EngineState.pending_spt_stats` assumes.

    Computed once per Fenwick (re)build with stable sorts of row positions:
    by id, then by release, gives the ``(release, id)`` order every machine
    breaks size ties by; per machine, a stable sort of that order by size is
    the SPT order, whose inverse permutation is the machine's rank column.
    """
    ids = [job.id for job in jobs]
    n = len(ids)
    rows = dict(zip(ids, range(n)))
    ranks = array("q", [0]) * (n * num_machines)
    releases = [job.release for job in jobs]
    tie_order = sorted(range(n), key=ids.__getitem__)
    tie_order.sort(key=releases.__getitem__)
    sizes = [job.sizes for job in jobs]
    rank_of = [0] * n
    for machine in range(num_machines):
        column = list(map(itemgetter(machine), sizes))
        for rank, row in enumerate(sorted(tie_order, key=column.__getitem__)):
            rank_of[row] = rank
        ranks[machine::num_machines] = array("q", rank_of)
    return rows, ranks


class PendingPrefixStats:
    """Per-machine Fenwick trees over the priority order of the pending set.

    Answers, in O(log n), the two order statistics the paper's dispatch
    surrogates need about a machine's pending set:

    * how many pending jobs precede a given job in the priority order, and
      the total processing time of those jobs (``lambda_ij``'s *waiting*
      term);
    * how many pending jobs succeed it (``lambda_ij``'s delay multiplier).

    One Fenwick pair per machine, indexed by the precomputed priority ranks
    (:func:`build_priority_ranks`: the shared ``id -> row`` dict and the flat
    rank array).  Counts are exact integers; size sums are float
    accumulations in Fenwick-node order, which is deterministic but may
    differ from a left-to-right scan in the last bits — both dispatch modes
    share these trees, so indexed and scan runs stay byte-identical.

    The engine adds a job when it is dispatched and removes it when it starts
    or is rejected; unlike the heaps this structure supports true O(log n)
    deletion, so no lazy invalidation is needed.
    """

    __slots__ = ("_rows", "_ranks", "_m", "_size", "_count", "_n")

    def __init__(self, rows: dict[int, int], ranks: "array[int]", num_machines: int) -> None:
        self._rows = rows
        self._ranks = ranks
        self._m = num_machines
        self._n = num_jobs = len(rows)
        self._size: list[list[float]] = [[0.0] * (num_jobs + 1) for _ in range(num_machines)]
        self._count: list[list[int]] = [[0] * (num_jobs + 1) for _ in range(num_machines)]

    def rank(self, machine: int, job_id: int) -> int:
        """Priority rank of ``job_id`` on ``machine`` (0-based, unique)."""
        return self._ranks[self._rows[job_id] * self._m + machine]

    @property
    def universe_size(self) -> int:
        """Number of jobs the rank universe was built over."""
        return self._n

    def knows(self, job_id: int) -> bool:
        """Whether ``job_id`` is part of the rank universe.

        Jobs registered after the build (streaming ingestion) have no rank;
        the engine state routes them to the scan fallback until the trees
        are rebuilt over the grown universe.
        """
        return job_id in self._rows

    def add(self, machine: int, job_id: int, size: float) -> None:
        """Record that the job became pending on ``machine``."""
        self._update(machine, self._ranks[self._rows[job_id] * self._m + machine], size, 1)

    def remove(self, machine: int, job_id: int, size: float) -> None:
        """Record that the job left the pending set (started or rejected)."""
        self._update(machine, self._ranks[self._rows[job_id] * self._m + machine], -size, -1)

    def _update(self, machine: int, rank: int, size: float, delta: int) -> None:
        size_tree = self._size[machine]
        count_tree = self._count[machine]
        position = rank + 1
        n = self._n
        while position <= n:
            size_tree[position] += size
            count_tree[position] += delta
            position += position & -position

    def prefix_of(self, machine: int, job_id: int) -> tuple[int, float]:
        """``(count, size sum)`` of pending jobs ranked strictly below ``job_id``."""
        size_tree = self._size[machine]
        count_tree = self._count[machine]
        position = self._ranks[self._rows[job_id] * self._m + machine]
        count = 0
        total = 0.0
        while position > 0:
            count += count_tree[position]
            total += size_tree[position]
            position -= position & -position
        return count, total
