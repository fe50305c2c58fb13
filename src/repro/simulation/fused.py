"""Fused engine stepper: the fast path behind ``dispatch="indexed"``.

The engine loop, the decisions and every float operation are those of the
reference :class:`~repro.simulation.stepper.EngineStepper` (which
``dispatch="scan"`` runs unchanged as the differential oracle).  What changes
is the per-event Python frame count:

* **A fused λ-sweep** (:meth:`FusedState.spt_lambda_argmin`): one call per
  arrival that inlines the per-machine SPT order statistics (dispatch-order
  scan below :data:`~repro.simulation.state.PREFIX_SCAN_CUTOFF`, Fenwick
  prefix walk above it) and the ``lambda_ij`` argmin — replacing the
  ``on_arrival -> lambda_ij -> pending_spt_stats -> pending_prefix ->
  prefix_of`` chain of ~5 Python frames per machine per arrival.  The
  arriving job's rank row is looked up once per arrival; its rank on each
  machine is then one index into the flat rank array of
  :func:`~repro.simulation.indexed.build_priority_ranks`.
* **An array event queue** (:class:`ArrayEventQueue`): arrivals live in two
  parallel lists consumed by a cursor (the stepper offers jobs in release
  order, so pushes are appends); completions live in a small heap of plain
  tuples.  No :class:`~repro.simulation.events.Event` allocation on the
  fused loop.
* **A fused event loop** (:meth:`FusedStepper._run_core`): ``drain`` /
  ``advance_to`` process events without constructing ``Event`` objects or
  dispatching through ``step()``, with the same handler bodies inlined.
  Its records and intervals are built through their slots
  (``JobRecord.trusted``, ``ExecutionInterval.trusted``) and its decision
  events with ``tuple.__new__``; the reference handlers keep the checked
  constructors as the spec.

Select-next argmins come from the lazily-invalidated heaps of
:mod:`repro.simulation.indexed`, as in the base stepper's indexed branch.
Byte-identity with ``scan`` is by construction — identical float expressions
evaluated in identical order, identical event ordering ``(time, kind, seq)``,
identical tie-breaks — and is enforced by the differential harness in
``tests/test_indexed_dispatch.py``.
"""

from __future__ import annotations

import math
from array import array
from heapq import heappop, heappush

from repro.exceptions import SimulationError
from repro.simulation.events import Event, EventKind
from repro.simulation.indexed import PendingPrefixStats
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.schedule import ExecutionInterval, JobRecord
from repro.simulation.state import PREFIX_SCAN_CUTOFF, EngineState, RunningInfo
from repro.simulation.stepper import DecisionEvent, EngineStepper

__all__ = ["ArrayEventQueue", "FusedState", "FusedStepper"]


class FusedState(EngineState):
    """Engine state with the fused Theorem-1 dispatch sweep.

    Inherits all bookkeeping (pending dicts, size sums, Fenwick add/remove,
    materialisation and rebuild policy) unchanged; adds
    :meth:`spt_lambda_argmin`, which the Theorem-1 policy calls once per
    arrival instead of one ``pending_spt_stats`` chain per machine.
    """

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        # Each machine keeps its pending dict for the whole run, so the
        # sweep and the fused loop index this list instead of taking the
        # ``machines[i].pending`` hop on every machine of every arrival.
        self._pending_items = [ms.pending for ms in self.machines]
        # Cached direct references into the materialised prefix stats, so
        # the sweep walks trees without per-query attribute/method hops.
        # Refreshed whenever ``prefix_stats`` changes identity (first
        # materialisation or an amortised rebuild).
        self._fen_stats: PendingPrefixStats | None = None
        self._fen_rows: dict[int, int] | None = None
        self._fen_ranks: "array[int] | None" = None
        self._fen_counts: list[list[int]] | None = None
        self._fen_sizes: list[list[float]] | None = None

    def _fen_cache(self) -> "PendingPrefixStats | None":
        stats = self.prefix_stats
        if stats is not None and stats is not self._fen_stats:
            self._fen_stats = stats
            self._fen_rows = stats._rows
            self._fen_ranks = stats._ranks
            self._fen_counts = stats._count
            self._fen_sizes = stats._size
        return stats

    def spt_lambda_argmin(self, job: Job, epsilon: float) -> tuple[int | None, float]:
        """``(argmin_i lambda_ij, min_i lambda_ij)`` — the Theorem-1 dispatch rule.

        Bit-identical to the reference per-machine loop
        (``lambda_ij = p_ij/eps + (waiting + p_ij) + succeeding * p_ij`` with
        strict ``<`` keeping the lowest machine index on ties): the order
        statistics come from the same scan-below-cutoff / Fenwick-above
        branch structure as
        :meth:`~repro.simulation.state.EngineState.pending_spt_stats`, with
        the same materialisation and amortised-rebuild timing (delegated to
        :meth:`pending_prefix` off the fast path), and float expressions are
        evaluated in the same order.  Returns ``(None, inf)`` when no machine
        is eligible.

        The arriving job's rank row is looked up once per arrival; its rank
        on each machine past the cutoff is then one index into the flat rank
        array.
        """
        pending_items = self._pending_items
        jobs = self._jobs
        sizes = job.sizes
        release = job.release
        job_id = job.id
        inf = math.inf
        cutoff = PREFIX_SCAN_CUTOFF
        num_machines = len(pending_items)
        stats = self._fen_cache()
        unranked = self._stats_unranked
        fen_rows = self._fen_rows
        fen_ranks = self._fen_ranks
        fen_counts = self._fen_counts
        fen_sizes = self._fen_sizes
        # ``None`` before the ranks are built and for a job outside them.
        row = None if stats is None else fen_rows.get(job_id)
        best_machine: int | None = None
        best_lambda = inf

        for machine in range(num_machines):
            p_ij = sizes[machine]
            if p_ij == inf:
                continue
            pending = pending_items[machine]
            q = len(pending)
            prefix = None
            if q > cutoff:
                if row is not None and not unranked[machine]:
                    ctree = fen_counts[machine]
                    stree = fen_sizes[machine]
                    pos = fen_ranks[row * num_machines + machine]
                    count = 0
                    total = 0.0
                    while pos > 0:
                        count += ctree[pos]
                        total += stree[pos]
                        pos -= pos & -pos
                    prefix = (count, total)
                if prefix is None:
                    # Not materialised yet, an unranked job in play, or a
                    # job outside the rank universe: the slow path owns the
                    # materialise/rebuild policy so its timing stays
                    # identical to the scan path.
                    prefix = self.pending_prefix(machine, job_id)
                    if self.prefix_stats is not stats:
                        stats = self._fen_cache()
                        fen_rows = self._fen_rows
                        fen_ranks = self._fen_ranks
                        fen_counts = self._fen_counts
                        fen_sizes = self._fen_sizes
                        row = fen_rows.get(job_id)
            if prefix is not None:
                preceding, waiting = prefix
                succeeding = q - preceding
            else:
                # Dispatch-order scan: same iteration order and summation
                # order as the reference scan in pending_spt_stats, same
                # ``(p, release, id) <= key`` tie-break unrolled into float
                # comparisons.
                waiting = 0.0
                succeeding = 0
                for other_id in pending:
                    if other_id == job_id:
                        continue
                    other = jobs[other_id]
                    p_other = other.sizes[machine]
                    if p_other < p_ij:
                        waiting += p_other
                    elif p_other > p_ij:
                        succeeding += 1
                    else:
                        r_other = other.release
                        if r_other < release or (r_other == release and other_id < job_id):
                            waiting += p_other
                        else:
                            succeeding += 1
            lam = (p_ij / epsilon) + (waiting + p_ij) + succeeding * p_ij
            if lam < best_lambda:
                best_machine = machine
                best_lambda = lam
        return best_machine, best_lambda


class ArrayEventQueue:
    """Array-backed :class:`~repro.simulation.events.EventQueue` counterpart.

    Arrivals: two parallel lists plus a consume cursor, pushed in
    non-decreasing time (the stepper refuses an offer below the previous
    one), so a push is an O(1) append.  Completions: a heap of plain
    ``(time, seq, job_id, machine, version)`` tuples.  The pop order is
    exactly the reference ``(time, kind, seq)`` order: completions before
    arrivals at equal timestamps, insertion order within a kind.

    ``push_arrival``/``push_completion``/``pop``/``peek_time``/``len`` match
    ``EventQueue``, so the inherited ``step()``/``finish()`` paths work
    unchanged; the fused loop reaches into the underlying arrays.
    """

    __slots__ = ("_arr_times", "_arr_ids", "_arr_pos", "_comp", "_seq")

    def __init__(self) -> None:
        self._arr_times: list[float] = []
        self._arr_ids: list[int] = []
        self._arr_pos = 0
        self._comp: list[tuple[float, int, int, int, int]] = []
        self._seq = 0

    def __len__(self) -> int:
        return (len(self._arr_times) - self._arr_pos) + len(self._comp)

    def __bool__(self) -> bool:
        return self._arr_pos < len(self._arr_times) or bool(self._comp)

    def push_arrival(self, time: float, job_id: int) -> None:
        """Append a job-arrival event, no earlier than the last one pushed."""
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        self._arr_times.append(time)
        self._arr_ids.append(job_id)

    def push_completion(self, time: float, job_id: int, machine: int, version: int) -> None:
        """Insert a completion carrying the machine's version stamp."""
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        self._seq += 1
        heappush(self._comp, (time, self._seq, job_id, machine, version))

    def peek_time(self) -> float:
        """Timestamp of the next event without removing it."""
        pos = self._arr_pos
        arr_time = self._arr_times[pos] if pos < len(self._arr_times) else None
        comp_time = self._comp[0][0] if self._comp else None
        if arr_time is None and comp_time is None:
            raise SimulationError("peek on an empty event queue")
        if comp_time is None:
            return arr_time
        if arr_time is None:
            return comp_time
        return comp_time if comp_time <= arr_time else arr_time

    def pop(self) -> Event:
        """Remove and return the next event in ``(time, kind, seq)`` order."""
        pos = self._arr_pos
        arr_time = self._arr_times[pos] if pos < len(self._arr_times) else None
        comp = self._comp
        if comp and (arr_time is None or comp[0][0] <= arr_time):
            time, _, job_id, machine, version = heappop(comp)
            return Event(time=time, kind=EventKind.COMPLETION, job_id=job_id,
                         machine=machine, version=version)
        if arr_time is None:
            raise SimulationError("pop from an empty event queue")
        self._arr_pos = pos + 1
        return Event(time=arr_time, kind=EventKind.ARRIVAL, job_id=self._arr_ids[pos])


class FusedStepper(EngineStepper):
    """Engine stepper of the ``indexed`` dispatch mode.

    Same construction, validation, handler semantics and single-use
    contract as :class:`EngineStepper` — the overrides swap in the fused
    state, the array event queue and the fused ``drain``/``advance_to``
    loop.  ``step()`` is inherited and still processes one :class:`Event`
    at a time.
    """

    def _make_state(self, instance: Instance) -> FusedState:
        return FusedState(instance)

    def _make_queue(self) -> ArrayEventQueue:
        return ArrayEventQueue()

    def advance_to(self, t: float) -> int:
        processed = self._run_core(t)
        if t > self._floor:
            self._floor = t
        return processed

    def drain(self) -> int:
        return self._run_core(None)

    def _run_core(self, bound: "float | None") -> int:
        """Process events up to ``bound`` (all of them when ``None``).

        The bodies of ``step()`` / ``_handle_completion`` /
        ``_handle_arrival`` / ``_start_idle_machines`` inlined over the
        array queue: identical state mutations, record/interval contents,
        observer calls and machine-iteration order, without per-event
        ``Event`` construction or handler dispatch.  Any behavioural
        divergence from the inherited loop is a bug the differential
        harness is designed to catch.
        """
        if self._finished:
            if len(self.queue) and (bound is None or self.queue.peek_time() <= bound):
                raise SimulationError("cannot step a finished stepper")
            return 0
        state = self.state
        policy = self.policy
        machines = state.machines
        num_machines = state.num_machines
        observer = self.observer
        records = self.records
        intervals = self.intervals
        jobs = state.jobs_by_id
        pending_items = state._pending_items
        new_interval = ExecutionInterval.trusted
        new_record = JobRecord.trusted
        new_tuple = tuple.__new__
        pick_start = self.engine._pick_start
        on_arrival = policy.on_arrival
        dispatched = self.dispatched
        aq = self.queue
        arr_times = aq._arr_times
        arr_ids = aq._arr_ids
        comp = aq._comp
        inf = math.inf
        processed = 0
        event_count = self.event_count
        # ``self._floor`` is raised per event, as ``step()`` does, so an
        # offer an observer makes mid-loop meets the same bound.
        # Local mirror of the consume cursor; written back on every
        # consume so mid-loop pushes (e.g. from an observer) keep the
        # queue view consistent.  ``arr_times`` only ever grows, so the
        # fresh ``len`` per iteration stays correct under such pushes.
        arr_pos = aq._arr_pos

        while True:
            arr_time = arr_times[arr_pos] if arr_pos < len(arr_times) else inf
            if comp and comp[0][0] <= arr_time:
                t = comp[0][0]
                if bound is not None and t > bound:
                    break
                _, _, job_id, machine, version = heappop(comp)
                state.time = t
                if t > self._floor:
                    self._floor = t
                event_count += 1
                processed += 1
                ms = machines[machine]
                info = ms.running
                if ms.version == version and info is not None and info.job.id == job_id:
                    ms.running = None
                    ms.version += 1
                    start = info.start
                    speed = info.speed
                    intervals.append(new_interval(machine, job_id, start, t, speed, True))
                    job = info.job
                    records[job_id] = new_record(
                        job_id, job.weight, job.release, machine, start, t, False, None, None
                    )
                    if observer is not None:
                        observer(
                            new_tuple(DecisionEvent, ("complete", t, job_id, machine, speed, None))
                        )
                # A stale completion still offers its machine a start,
                # exactly like the event-object loop does.
                to_try = (machine,)
            else:
                if arr_time == inf:
                    break
                if bound is not None and arr_time > bound:
                    break
                pos = arr_pos
                arr_pos = pos + 1
                aq._arr_pos = arr_pos
                t = arr_time
                state.time = t
                if t > self._floor:
                    self._floor = t
                event_count += 1
                processed += 1
                job = jobs[arr_ids[pos]]
                decision = on_arrival(t, job, state)
                machine = decision.machine
                job_id = job.id
                if machine is None:
                    records[job_id] = new_record(
                        job_id, job.weight, job.release, None, None, None, True, t, "immediate"
                    )
                    if observer is not None:
                        observer(
                            new_tuple(DecisionEvent, ("reject", t, job_id, None, None, "immediate"))
                        )
                    touched: list[int] = []
                else:
                    if not (0 <= machine < num_machines):
                        raise SimulationError(
                            f"policy {policy.name!r} dispatched job {job_id} "
                            f"to invalid machine {machine}"
                        )
                    if math.isinf(job.sizes[machine]):
                        raise SimulationError(
                            f"policy {policy.name!r} dispatched job {job_id} "
                            f"to forbidden machine {machine}"
                        )
                    state.add_pending(machine, job)
                    dispatched[job_id] = machine
                    if observer is not None:
                        observer(
                            new_tuple(DecisionEvent, ("dispatch", t, job_id, machine, None, None))
                        )
                    touched = [machine]
                rejections = decision.rejections
                if rejections:
                    apply_rejection = self._apply_rejection
                    for rejection in rejections:
                        touched.append(apply_rejection(t, rejection))
                to_try = sorted(set(touched)) if len(touched) > 1 else touched

            for machine in to_try:
                ms = machines[machine]
                if ms.running is not None or not pending_items[machine]:
                    continue
                sjob, speed, duration = pick_start(t, policy, ms, state)
                state.remove_pending(machine, sjob.id)
                finish = t + duration
                ms.running = RunningInfo(sjob, t, finish, speed)
                aq.push_completion(finish, sjob.id, machine, ms.version)
                if observer is not None:
                    observer(new_tuple(DecisionEvent, ("start", t, sjob.id, machine, speed, None)))

        self.event_count = event_count
        return processed
