"""Read-only runtime state exposed to scheduling policies.

The engines own all mutation; policies observe the state through
:class:`EngineState` and return decisions.  This keeps the paper's algorithms,
the baselines and the ablations side-effect free with respect to the engine's
bookkeeping, which in turn makes the validators meaningful.

The state also carries the engine's indexed structures: the select-next heaps
and the Fenwick prefix stats, whose SPT ranks it builds itself the first time
a queue outgrows :data:`PREFIX_SCAN_CUTOFF` (see
:mod:`repro.simulation.indexed`).  It holds no callable that refers back to
it, so a finished run's state, and whatever only it keeps alive, is freed by
reference counting as soon as its last reference goes, not at the cyclic
collector's next pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.exceptions import SimulationError
from repro.simulation.indexed import PendingPrefixStats, build_priority_ranks
from repro.simulation.instance import Instance
from repro.simulation.job import Job

if TYPE_CHECKING:
    from repro.simulation.indexed import IndexedPending

#: Queue length above which :meth:`EngineState.pending_spt_stats` switches
#: from the dispatch-order scan to the Fenwick prefix query.  The scan is
#: cheaper for the short queues the rejection rules maintain on smooth
#: traffic; the Fenwicks win as soon as queues build up.
PREFIX_SCAN_CUTOFF = 16


@dataclass(slots=True)
class RunningInfo:
    """Information about the job currently executing on a machine."""

    job: Job
    start: float
    finish: float
    speed: float

    def remaining_time(self, t: float) -> float:
        """Wall-clock time still needed after time ``t`` (0 if already done)."""
        return max(0.0, self.finish - t)

    def remaining_work(self, t: float) -> float:
        """Remaining processing volume after time ``t`` (q_ik(t) in the paper)."""
        return self.remaining_time(t) * self.speed

    def elapsed(self, t: float) -> float:
        """Time the job has already been running at time ``t``."""
        return max(0.0, min(t, self.finish) - self.start)


@dataclass(slots=True)
class MachineState:
    """Mutable per-machine runtime state (owned by the engine).

    ``pending`` holds the ids of the jobs waiting on the machine as the keys
    of a dict, in dispatch order: the order policies iterate, with O(1)
    membership tests and removals.
    """

    index: int
    pending: dict[int, None] = field(default_factory=dict)
    running: RunningInfo | None = None
    version: int = 0

    def is_idle(self) -> bool:
        """``True`` when no job is executing on the machine."""
        return self.running is None


class EngineState:
    """Snapshot view of the simulation handed to policies.

    Policies may call the read accessors freely; they must not mutate the
    underlying containers (the engine treats any such mutation as a bug).
    The state starts with no job: the stepper registers each job as it is
    offered (:meth:`register_job`).
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.time: float = 0.0
        self._jobs: dict[int, Job] = {}
        self.machines: list[MachineState] = [
            MachineState(index=i) for i in range(instance.num_machines)
        ]
        #: Priority key of the running policy (``priority_key(job, machine)``),
        #: installed by the engine when the policy declares a static key.
        self._priority_key: Callable[[Job, int], tuple] | None = None
        #: Lazily-invalidated per-machine heaps over the pending sets; ``None``
        #: in scan mode or when the policy has no static key.
        self._index: "IndexedPending | None" = None
        #: Fenwick order statistics over the priority order; materialised
        #: lazily (same in both dispatch modes) the first time a pending set
        #: outgrows :data:`PREFIX_SCAN_CUTOFF`, so smooth workloads whose
        #: queues stay short never pay for rank building or tree updates.
        self.prefix_stats: PendingPrefixStats | None = None
        #: Whether the running policy opted into the prefix stats.
        self._wants_prefix_stats = False
        #: Per-machine pending job ids outside the materialised rank
        #: universe (streaming ingestion after materialisation).  While a
        #: machine has any, its prefix queries fall back to the scan;
        #: cleared on every rebuild.
        self._stats_unranked: list[set[int]] = [set() for _ in range(instance.num_machines)]
        #: ``True`` while an engine drives this state (mutations flow through
        #: :meth:`add_pending`/:meth:`remove_pending`, so the running totals
        #: below are trustworthy).
        self.engine_attached = False
        #: Engine-maintained total processing time of each machine's pending
        #: set (the job's size *on that machine*).  Incremental float sums:
        #: deterministic, may differ from a fresh scan in the last bits.
        self._size_sums: list[float] = [0.0] * instance.num_machines

    # -- indexed dispatch ------------------------------------------------------------

    def install_priority(
        self,
        key_fn: Callable[[Job, int], tuple] | None,
        index: "IndexedPending | None",
        prefix_stats: bool = False,
    ) -> None:
        """Engine hook: install the policy's static priority key (and heaps).

        With ``index`` set, :meth:`pending_argmin` answers from the heaps;
        with only ``key_fn`` set it scans the pending set — same argmin,
        different mechanics (the scan reference path used by the equivalence
        tests).  ``prefix_stats`` opts into the Fenwick order statistics,
        built on first demand; it is mode-independent: it serves the
        dispatch surrogates (``lambda_ij``), not the argmin.

        The state keeps no callable that refers back to itself, so a
        finished run's state is freed by reference counting alone.
        """
        self._priority_key = key_fn
        self._index = index
        self._wants_prefix_stats = prefix_stats
        self.engine_attached = True

    def register_job(self, job: Job) -> None:
        """Engine hook: make ``job`` known to the state.

        :meth:`~repro.simulation.stepper.EngineStepper.offer_many` is the one
        caller, on every path: the batch path offers its whole instance
        before the first event, a streaming session each batch as it is
        ingested; nothing is registered at construction.  The registration
        order (``dict`` insertion order) is the offer order, which is what
        the lazily-built prefix-rank universe iterates.

        Jobs registered after the Fenwick prefix stats materialised are not
        part of their rank universe; :meth:`add_pending` tracks them aside
        and :meth:`pending_prefix` serves affected machines by scan until
        the amortised rebuild policy rebuilds the trees (never hit by the
        batch path, where every registration precedes the first event).
        """
        self._jobs[job.id] = job

    def add_pending(self, machine: int, job: Job) -> None:
        """Engine hook: ``job`` was dispatched to ``machine`` and now waits there.

        Keeps every installed structure in sync: the authoritative pending
        set, the running size total, the select-next heap and the prefix
        Fenwicks.  All engine-side pending mutations go through here and
        :meth:`remove_pending`.
        """
        ms = self.machines[machine]
        ms.pending[job.id] = None
        size = job.sizes[machine]
        self._size_sums[machine] += size
        if self._index is not None:
            self._index.push(machine, job)
        if self.prefix_stats is not None:
            if self.prefix_stats.knows(job.id):
                self.prefix_stats.add(machine, job.id, size)
            else:
                self._stats_unranked[machine].add(job.id)

    def remove_pending(self, machine: int, job_id: int) -> None:
        """Engine hook: the pending job started or was rejected."""
        ms = self.machines[machine]
        del ms.pending[job_id]
        size = self._jobs[job_id].sizes[machine]
        self._size_sums[machine] -= size
        # The select-next heaps invalidate lazily: the stale entry is skipped
        # when it surfaces in argmin.  The Fenwicks support true deletion.
        if self.prefix_stats is not None:
            unranked = self._stats_unranked[machine]
            if unranked and job_id in unranked:
                unranked.discard(job_id)
            else:
                self.prefix_stats.remove(machine, job_id, size)

    def pending_size_sum(self, machine: int) -> float:
        """Engine-maintained total pending processing time on ``machine``.

        O(1); equal to :meth:`pending_total_size` up to float accumulation
        order.  Only meaningful while an engine drives the state (direct
        mutations of ``machines[i].pending`` bypass the running total).
        """
        return self._size_sums[machine]

    def pending_spt_stats(self, machine: int, job: Job) -> tuple[float, int]:
        """``(waiting size sum, succeeding count)`` of ``job`` vs the pending set.

        The two order statistics the SPT-ordered dispatch surrogates need
        (``lambda_ij``'s waiting term and its delay multiplier): the total
        size of pending jobs at or before ``job`` in the SPT order
        ``(size on machine, release, id)``, and the number strictly after it.
        The job itself is never counted.

        Short queues are scanned in dispatch order — bit-identical to the
        reference ``split_by_precedence`` + ``sum`` formulation, and correct
        on detached states; past :data:`PREFIX_SCAN_CUTOFF` the answer comes
        from the Fenwick trees via :meth:`pending_prefix` (only installed for
        policies whose ``priority_key`` *is* the SPT order).
        """
        pending = self._machine(machine).pending
        if not pending:
            return 0.0, 0
        prefix = self.pending_prefix(machine, job.id)
        if prefix is not None:
            preceding, waiting = prefix
            return waiting, len(pending) - preceding
        jobs = self._jobs
        p_ij = job.sizes[machine]
        key = (p_ij, job.release, job.id)
        job_id = job.id
        waiting = 0.0
        succeeding = 0
        for other_id in pending:
            if other_id == job_id:
                continue
            other = jobs[other_id]
            p_other = other.sizes[machine]
            if (p_other, other.release, other_id) <= key:
                waiting += p_other
            else:
                succeeding += 1
        return waiting, succeeding

    def pending_prefix(self, machine: int, job_id: int) -> tuple[int, float] | None:
        """Fenwick ``(count, size sum)`` of pending jobs preceding ``job_id``.

        Returns ``None`` when the caller should scan instead: the queue is
        within :data:`PREFIX_SCAN_CUTOFF` (a dispatch-order scan is cheaper
        *and* reproduces the reference float summation bit-for-bit) or the
        policy never opted into prefix stats.  Past the cutoff the Fenwick
        trees answer in O(log n) — same count, same sum up to float
        accumulation order, fully deterministic, and shared by both dispatch
        modes, so indexed and scan runs stay byte-identical.  Assumes the job
        itself is not pending (true during dispatch).

        The trees are materialised on first use: rank building and tree
        updates cost nothing on workloads whose queues stay short.
        """
        if len(self.machines[machine].pending) <= PREFIX_SCAN_CUTOFF:
            return None
        stats = self.prefix_stats
        if stats is None:
            if not self._wants_prefix_stats:
                return None
            stats = self._materialise_stats()
        if self._stats_unranked[machine] or not stats.knows(job_id):
            # Streaming ingestion grew the job universe past what the trees
            # were ranked over.  Rebuilding per new job would be quadratic
            # on a bursty serve stream, so rebuilds are amortised: only once
            # the registered universe has doubled (geometric growth, O(n
            # log n) total rebuild work); until then the affected queries
            # take the scan fallback, which is correct at any queue length.
            if len(self._jobs) < 2 * stats.universe_size:
                return None
            stats = self._materialise_stats()
        return stats.prefix_of(machine, job_id)

    def _materialise_stats(self) -> PendingPrefixStats:
        """Build the Fenwick trees and load the current pending sets into them.

        The ranks cover every job registered with the state: the full
        instance on the batch path (all jobs are offered before any event
        runs), everything ingested so far on a streaming session.

        Bulk-adds follow machine order then dispatch order, so right after
        materialisation every tree sum equals the dispatch-order scan sum
        exactly; drift (float accumulation order) only appears with later
        removals, and identically in both dispatch modes.

        Streaming ingestion grows the job universe, and
        :meth:`pending_prefix`'s amortised rebuild policy calls this again
        over the grown universe (clearing the unranked overflow sets — every
        registered job is rankable again).
        """
        jobs = self._jobs
        num_machines = len(self.machines)
        stats = PendingPrefixStats(
            *build_priority_ranks(list(jobs.values()), num_machines), num_machines
        )
        for ms in self.machines:
            for job_id in ms.pending:
                stats.add(ms.index, job_id, jobs[job_id].sizes[ms.index])
        self.prefix_stats = stats
        for unranked in self._stats_unranked:
            unranked.clear()
        return stats

    def pending_argmin(
        self, machine: int, key_fn: Callable[[Job, int], tuple] | None = None
    ) -> Job | None:
        """The pending job minimising the policy's priority key on ``machine``.

        Policies whose local order is static (SPT, density, release order)
        implement ``select_next`` as
        ``state.pending_argmin(machine, self.priority_key)``; the engine
        decides whether the argmin is found through the heaps or by a linear
        scan.  On a detached state (no engine attached) the passed ``key_fn``
        drives the scan, so policies keep working outside an engine.  Ties
        cannot occur: every key ends in the job id.
        """
        ms = self._machine(machine)
        pending = ms.pending
        if not pending:
            return None
        if self._index is not None:
            return self._index.argmin(machine, pending)
        key_fn = self._priority_key or key_fn
        if key_fn is None:
            raise SimulationError(
                "pending_argmin requires a priority key (from the policy's "
                "priority_key hook or the key_fn argument)"
            )
        jobs = self._jobs
        best: Job | None = None
        best_key: tuple | None = None
        for job_id in pending:
            job = jobs[job_id]
            key = key_fn(job, machine)
            if best_key is None or key < best_key:
                best, best_key = job, key
        return best

    # -- job / machine accessors ---------------------------------------------------

    @property
    def num_machines(self) -> int:
        """Number of machines in the instance."""
        return len(self.machines)

    def job(self, job_id: int) -> Job:
        """Look up a job by id."""
        try:
            return self._jobs[job_id]
        except KeyError as exc:
            raise SimulationError(f"unknown job id {job_id}") from exc

    @property
    def jobs_by_id(self) -> dict[int, Job]:
        """Read-only id -> :class:`Job` mapping (do not mutate)."""
        return self._jobs

    def machine_pending(self, machine: int) -> dict[int, None]:
        """The pending ids of ``machine``: dict keys in dispatch order (do not mutate).

        This is the zero-copy accessor the hot dispatch loops iterate and
        test membership in; :meth:`pending_jobs` materialises the same jobs
        as a list.
        """
        return self._machine(machine).pending

    def pending_jobs(self, machine: int) -> list[Job]:
        """Waiting jobs of ``machine`` in dispatch order."""
        return [self._jobs[j] for j in self._machine(machine).pending]

    def running(self, machine: int) -> RunningInfo | None:
        """Info on the job currently executing on ``machine`` (``None`` if idle)."""
        return self._machine(machine).running

    def is_idle(self, machine: int) -> bool:
        """``True`` when ``machine`` executes nothing."""
        return self._machine(machine).is_idle()

    def pending_total_size(self, machine: int) -> float:
        """Total processing time of waiting jobs on ``machine`` (their size there).

        Added left to right: Python 3.12's compensated ``sum`` would give
        other bits than 3.10 and 3.11.
        """
        total = 0
        for job_id in self._machine(machine).pending:
            total += self._jobs[job_id].sizes[machine]
        return total

    # -- internal ------------------------------------------------------------------

    def _machine(self, machine: int) -> MachineState:
        if not (0 <= machine < len(self.machines)):
            raise SimulationError(
                f"machine index {machine} out of range [0, {len(self.machines)})"
            )
        return self.machines[machine]
