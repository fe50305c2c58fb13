"""Reentrant stepping core shared by both non-preemptive engines.

Historically the whole event loop lived inside ``NonPreemptiveEngine.run()``:
the engine seeded the queue with every arrival of a complete
:class:`~repro.simulation.instance.Instance` and looped until the queue
drained.  That shape is batch-only — the caller must know all jobs up front.
The paper's setting is *online*, so the loop now lives here as an explicit,
resumable session object:

* :meth:`EngineStepper.offer` ingests one job (registers it with the state
  and enqueues its arrival event) — jobs may keep arriving while the
  simulation is under way, in release order and never before the time the
  simulation reached.  Offering is the only way a job becomes known: the
  engine state starts empty on the batch path too, so the state's
  ``id -> Job`` dict is the one record of which ids were offered;
* :meth:`EngineStepper.step` processes exactly one event;
* :meth:`EngineStepper.advance_to` processes every event up to a time bound;
* :meth:`EngineStepper.drain` processes everything currently enqueued;
* :meth:`EngineStepper.finish` runs the end-of-simulation invariants and
  builds the :class:`~repro.simulation.schedule.SimulationResult`.

``NonPreemptiveEngine.run()`` is a thin wrapper — offer every job of the
instance in order, drain, finish — that performs the *identical* sequence of
queue and state operations the old inlined loop performed, so batch results
are byte-for-byte unchanged in both dispatch modes (the equivalence suite
asserts it).

The stepper also carries the engine's **decision-event stream**: an optional
``observer`` callable receives one :class:`DecisionEvent` per scheduling
decision (dispatch / start / complete / reject, with timestamps), which is
what the streaming :class:`~repro.service.session.SchedulerSession` exposes
to callers.  With no observer installed the stream costs one attribute check
per decision.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple

from repro.exceptions import SimulationError
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.indexed import IndexedPending
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.schedule import ExecutionInterval, JobRecord, SimulationResult
from repro.simulation.state import EngineState, RunningInfo

__all__ = ["DecisionEvent", "DECISION_KINDS", "EngineStepper"]

#: Kinds of decision events a stepper emits, in no particular order.
DECISION_KINDS = ("dispatch", "start", "complete", "reject")


class DecisionEvent(NamedTuple):
    """One observable scheduling decision.

    A ``NamedTuple`` rather than a dataclass: sessions record one of these
    per decision on the engine's hot path, and tuple construction is several
    times cheaper — the difference between the streaming path meeting its
    <10% overhead budget and missing it.

    Attributes
    ----------
    kind:
        ``"dispatch"`` (an arriving job was assigned to a machine's queue),
        ``"start"`` (a pending job began executing), ``"complete"`` (a
        running job finished) or ``"reject"`` (a job was discarded — at
        arrival, while pending, or while running).
    time:
        Simulation timestamp of the decision.
    job_id / machine:
        The job concerned and the machine involved (``None`` for immediate
        rejections, which never reach a queue).
    speed:
        Execution speed for ``start``/``complete`` events (``None`` otherwise).
    reason:
        Rejection reason (``"immediate"``, ``"rule1"``, ``"rule2"``, ...) for
        ``reject`` events; ``None`` otherwise.
    """

    kind: str
    time: float
    job_id: int
    machine: int | None = None
    speed: float | None = None
    reason: str | None = None

    def as_dict(self) -> dict:
        """Plain-dict representation (JSON-serialisable, canonical field order)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "job_id": self.job_id,
            "machine": self.machine,
            "speed": self.speed,
            "reason": self.reason,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "DecisionEvent":
        """Inverse of :meth:`as_dict`."""
        return DecisionEvent(
            kind=str(data["kind"]),
            time=float(data["time"]),
            job_id=int(data["job_id"]),
            machine=None if data.get("machine") is None else int(data["machine"]),
            speed=None if data.get("speed") is None else float(data["speed"]),
            reason=None if data.get("reason") is None else str(data["reason"]),
        )


class EngineStepper:
    """Resumable event-loop state of one simulation run.

    Construction prepares everything ``run()`` used to prepare — policy
    reset, engine state, the indexed dispatch structures — but registers no
    job and processes no events.  Jobs enter through :meth:`offer`, also
    those of the engine's own instance; events are processed by
    :meth:`step` / :meth:`advance_to` / :meth:`drain`; :meth:`finish` seals
    the run.

    The stepper is single-use: after :meth:`finish` it refuses further
    offers and steps (build a new stepper for a new run).
    """

    def __init__(self, engine, policy, observer: Callable[[DecisionEvent], None] | None = None):
        self.engine = engine
        self.policy = policy
        # Policies that watch their own run (the adaptive meta-scheduler's
        # telemetry monitor) expose ``observe_decision``; it is chained in
        # front of the external observer so the decision stream feeds the
        # policy identically on the batch and streaming paths.
        policy_observer = getattr(policy, "observe_decision", None)
        if callable(policy_observer):
            if observer is None:
                observer = policy_observer
            else:
                external = observer

                def observer(event, _policy=policy_observer, _external=external):
                    _policy(event)
                    _external(event)

        self.observer = observer
        instance = engine.instance
        policy.reset(instance)

        state = self._make_state(instance)
        key_fn = getattr(policy, "priority_key", None)
        if not callable(key_fn):
            key_fn = None
        index: IndexedPending | None = None
        if key_fn is not None and engine.dispatch == "indexed":
            # The indexed mode answers select-next argmins from the
            # lazily-invalidated heaps; scan keeps the reference linear scans.
            index = IndexedPending(instance.num_machines, key_fn)
        prefix_stats = key_fn is not None and bool(getattr(policy, "wants_prefix_stats", False))
        state.install_priority(key_fn, index, prefix_stats)

        self.state = state
        self.queue = self._make_queue()
        self.records: dict[int, JobRecord] = {}
        self.intervals: list[ExecutionInterval] = []
        self.event_count = 0
        #: Machine each dispatched job was queued on, by job id.
        self.dispatched: dict[int, int] = {}
        #: Lowest release a new offer may carry: the newest release offered,
        #: the latest processed event or the highest ``advance_to`` bound,
        #: whichever is latest.  Offers below it are refused.
        self._floor = 0.0
        self._finished = False

    # -- construction hooks (overridden by the fused stepper) ---------------------

    def _make_state(self, instance: Instance) -> EngineState:
        """Build the engine state; the fused stepper adds its λ-sweep."""
        return EngineState(instance)

    def _make_queue(self) -> EventQueue:
        """Build the event queue; the fused stepper uses an array-backed one."""
        return EventQueue()

    # -- ingestion -----------------------------------------------------------------

    def offer(self, job: Job) -> None:
        """Ingest one job: :meth:`offer_many` of ``[job]``."""
        self.offer_many((job,))

    def offer_many(self, jobs) -> int:
        """Ingest jobs: register each with the state and enqueue its arrival.

        Jobs come in release order, the paper's online model: streaming
        callers may keep offering jobs between steps, but a release below
        the previous offer's, below an already-processed event or below an
        :meth:`advance_to` bound is refused, as is an id offered before, in
        an earlier batch or earlier in this one (the state's
        ``jobs_by_id``, which registration fills as it goes, is the record
        of ids).  A refused batch leaves the stepper exactly as it was: the
        jobs it registered before the offending one are unregistered, and
        the release bound and the arrivals move only once the whole batch
        passed, so callers' bookkeeping cannot drift out of sync with a
        half-ingested batch.  Ingestion is on the streaming hot path; the
        cached-locals loops are what keep session ingestion within the
        batch path's throughput budget.  Returns the number of jobs offered.
        """
        if self._finished:
            raise SimulationError("cannot offer jobs to a finished stepper")
        rows = jobs if isinstance(jobs, (list, tuple)) else list(jobs)
        known = self.state.jobs_by_id
        register = self.state.register_job
        floor = self._floor
        for index, job in enumerate(rows):
            job_id = job.id
            if job_id in known:
                problem = f"job id {job_id} was already offered"
            elif job.release < floor:
                problem = (
                    f"job {job_id} released at {job.release} but the stream already "
                    f"reached {floor}; jobs are offered in release order"
                )
            else:
                register(job)
                floor = job.release
                continue
            # Each registered job of this batch was new, so deleting it
            # restores the dict's contents and order.
            for done in rows[:index]:
                del known[done.id]
            raise SimulationError(problem)
        self._floor = floor
        push = self.queue.push_arrival
        for job in rows:
            push(job.release, job.id)
        return len(rows)

    # -- stepping ------------------------------------------------------------------

    def peek_time(self) -> float | None:
        """Timestamp of the next enqueued event (``None`` when idle)."""
        return self.queue.peek_time() if self.queue else None

    def step(self) -> Event | None:
        """Process exactly one event; returns it (``None`` when idle)."""
        if self._finished:
            raise SimulationError("cannot step a finished stepper")
        if not self.queue:
            return None
        event = self.queue.pop()
        state = self.state
        state.time = event.time
        if event.time > self._floor:
            self._floor = event.time
        self.event_count += 1

        # Only machines the event touched can newly become startable: the
        # completion's machine, the dispatch target, and any machine a
        # rejection freed.  A policy starts a job whenever an idle machine
        # has work (``_pick_start`` refuses otherwise), so every untouched
        # machine is running or has an empty queue.
        if event.kind == EventKind.COMPLETION:
            self._handle_completion(event)
            touched = {event.machine}
        else:
            touched = self._handle_arrival(event)
        self._start_idle_machines(event.time, touched)
        return event

    def advance_to(self, t: float) -> int:
        """Process every enqueued event with timestamp at most ``t``.

        Returns the number of events processed.  Advancing is the caller's
        assertion that no job released strictly before ``t`` will be offered
        afterwards (the stepper enforces it on later offers; release exactly
        at the bound stays allowed — arrivals at equal timestamps process in
        offer order either way).
        """
        processed = 0
        queue = self.queue
        while queue and queue.peek_time() <= t:
            self.step()
            processed += 1
        if t > self._floor:
            self._floor = t
        return processed

    def drain(self) -> int:
        """Process every enqueued event; returns the number processed."""
        processed = 0
        while self.queue:
            self.step()
            processed += 1
        return processed

    # -- sealing -------------------------------------------------------------------

    def finish(self, instance: Instance | None = None) -> SimulationResult:
        """Seal the run and build the result.

        ``instance`` defaults to the engine's instance; streaming sessions
        pass the instance they assembled from the offered jobs.  Requires a
        drained queue, and every job of the result's instance must have
        completed or been rejected: a job of the engine's instance that was
        never offered fails here as a starved one does.
        """
        if self.queue:
            raise SimulationError(
                f"finish() with {len(self.queue)} unprocessed event(s); drain() first"
            )
        jobs = self.state.jobs_by_id
        result_instance = self.engine.instance if instance is None else instance
        if instance is None and jobs and not result_instance.jobs:
            # Streaming run over a fleet-only engine instance: assemble the
            # result instance from the offered jobs, which came in release
            # order; equal releases are ordered by id, as Instance.build does.
            result_instance = Instance(
                result_instance.machines,
                tuple(sorted(jobs.values(), key=lambda j: (j.release, j.id))),
                name=result_instance.name,
            )
        records = self.records
        missing = [job.id for job in result_instance.jobs if job.id not in records]
        if missing:
            # Every job must finish or be rejected so that flow times are
            # well defined; a job of the engine's instance that was never
            # offered has neither.
            raise SimulationError(
                f"{len(missing)} job(s) never finished nor were rejected: {missing[:5]}"
            )
        self._finished = True
        # Chronological by (start, machine), by two stable sorts: no key tuples.
        intervals = sorted(self.intervals, key=attrgetter("machine"))
        intervals.sort(key=attrgetter("start"))
        return SimulationResult(
            instance=result_instance,
            records=self.records,
            intervals=intervals,
            algorithm=self.policy.name,
            extras=self.engine._result_extras(self.intervals, self.event_count),
        )

    # -- event handlers (the former run() loop body) -------------------------------

    def _handle_completion(self, event: Event) -> None:
        ms = self.state.machines[event.machine]
        if ms.version != event.version or ms.running is None or ms.running.job.id != event.job_id:
            return  # stale completion (the job was rejected while running)
        info = ms.running
        ms.running = None
        ms.version += 1
        self.intervals.append(
            ExecutionInterval(
                machine=event.machine,
                job_id=event.job_id,
                start=info.start,
                end=event.time,
                speed=info.speed,
                completed=True,
            )
        )
        job = info.job
        self.records[job.id] = JobRecord(
            job_id=job.id,
            weight=job.weight,
            release=job.release,
            machine=event.machine,
            start=info.start,
            completion=event.time,
            rejected=False,
        )
        if self.observer is not None:
            self.observer(DecisionEvent("complete", event.time, job.id, event.machine, info.speed))

    def _handle_arrival(self, event: Event) -> set[int]:
        state = self.state
        policy = self.policy
        job = state.job(event.job_id)
        decision = policy.on_arrival(event.time, job, state)
        touched: set[int] = set()

        if decision.machine is None:
            self.records[job.id] = JobRecord(
                job_id=job.id,
                weight=job.weight,
                release=job.release,
                machine=None,
                start=None,
                completion=None,
                rejected=True,
                rejection_time=event.time,
                rejection_reason="immediate",
            )
            if self.observer is not None:
                self.observer(DecisionEvent("reject", event.time, job.id, None, None, "immediate"))
        else:
            machine = decision.machine
            if not (0 <= machine < state.num_machines):
                raise SimulationError(
                    f"policy {policy.name!r} dispatched job {job.id} to invalid machine {machine}"
                )
            if math.isinf(job.size_on(machine)):
                raise SimulationError(
                    f"policy {policy.name!r} dispatched job {job.id} to forbidden machine {machine}"
                )
            state.add_pending(machine, job)
            self.dispatched[job.id] = machine
            touched.add(machine)
            if self.observer is not None:
                self.observer(DecisionEvent("dispatch", event.time, job.id, machine))

        for rejection in decision.rejections:
            touched.add(self._apply_rejection(event.time, rejection))
        return touched

    def _apply_rejection(self, t: float, rejection) -> int:
        """Reject a running or pending job now; returns its machine.

        Both dispatch modes run this.  A job waits and runs only on the
        machine it was dispatched to, so ``dispatched`` finds it in O(1).
        """
        state = self.state
        job_id = rejection.job_id
        if job_id in self.records:
            raise SimulationError(f"job {job_id} rejected after it already finished/was rejected")
        machine = self.dispatched.get(job_id)
        if machine is None:
            raise SimulationError(f"cannot reject job {job_id}: it was never dispatched")
        ms = state.machines[machine]
        info = ms.running
        if info is not None and info.job.id == job_id:
            # Case 1: the job is running -> interrupt it (Rule 1).
            ms.running = None
            ms.version += 1
            if t > info.start:
                self.intervals.append(
                    ExecutionInterval.trusted(machine, job_id, info.start, t, info.speed, False)
                )
            job, start = info.job, info.start
        else:
            # Case 2: the job is pending on its dispatched machine.
            if job_id not in ms.pending:
                raise SimulationError(
                    f"cannot reject job {job_id}: not pending on machine {machine}"
                )
            state.remove_pending(machine, job_id)
            job, start = state.jobs_by_id[job_id], None
        reason = rejection.reason
        self.records[job_id] = JobRecord.trusted(
            job_id, job.weight, job.release, machine, start, None, True, t, reason
        )
        if self.observer is not None:
            self.observer(tuple.__new__(DecisionEvent, ("reject", t, job_id, machine, None, reason)))
        return machine

    def _start_idle_machines(self, t: float, machines: set[int]) -> None:
        state = self.state
        for machine in sorted(machines):
            ms = state.machines[machine]
            if ms.running is not None or not ms.pending:
                continue
            job, speed, duration = self.engine._pick_start(t, self.policy, ms, state)
            state.remove_pending(machine, job.id)
            ms.running = RunningInfo(job=job, start=t, finish=t + duration, speed=speed)
            self.queue.push_completion(t + duration, job.id, ms.index, ms.version)
            if self.observer is not None:
                self.observer(DecisionEvent("start", t, job.id, machine, speed))
