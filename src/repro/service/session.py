"""Streaming scheduler sessions: incremental ingestion over the engine stepper.

The paper's setting is online — jobs are revealed at their release times and
must be dispatched immediately — but the batch facade (:func:`repro.solve`)
requires the complete instance up front.  A :class:`SchedulerSession` is the
streaming surface on top of the reentrant
:class:`~repro.simulation.stepper.EngineStepper`:

>>> import repro
>>> session = repro.open_session("rejection-flow", machines=2, epsilon=0.5)
>>> session.submit(repro.Job(id=0, release=0.0, sizes=(3.0, 4.0)))
>>> _ = session.poll()                    # decision events so far
>>> outcome = session.finalize()          # -> the facade's SolveOutcome
>>> outcome.objective
'total-flow-time'

Contracts:

* **Jobs arrive in release order.**  Submissions must be non-decreasing in
  release date (exactly the :class:`~repro.simulation.instance.Instance`
  invariant); ids must be unique.
* **Deferred processing.**  ``submit``/``submit_many`` only ingest (``submit``
  is ``submit_many`` of one job, so both check the same contract); events
  are processed when the caller observes the session — :meth:`poll` (process
  everything up to the newest submitted release), :meth:`advance_to` (up to
  an explicit time bound, a declaration that no earlier arrival is coming),
  or :meth:`finalize` (drain everything).  Processing order is identical to
  the batch engine loop, so ingesting an instance and then finalizing yields
  **byte-identical** schedules and objectives to ``repro.solve`` — in both
  dispatch modes (the equivalence suite asserts it).  A session *polled
  mid-stream* is fully deterministic (the same submit/poll interleaving
  always reproduces the same result — what snapshot/restore relies on), but
  once queues outgrow the prefix-stats cutoff its Fenwick trees are built
  over the jobs ingested so far rather than the full instance, so its float
  prefix sums can differ from the batch run's in the last bits; the
  byte-identical-to-batch guarantee is therefore stated for the
  ingest-then-finalize replay pattern.
* **Events are handed out once.**  Every decision the stepper makes is
  buffered until :meth:`poll`, :meth:`advance_to` or :meth:`take_events`
  hands it out, then freed, so a long-lived stream holds only the events
  its consumer has not read yet.  :meth:`stats` derives its counters from
  the stepper's records when called.
* **Snapshots by replay.**  :meth:`snapshot` captures the session
  configuration plus the ingestion/advance operation log as canonical JSON;
  :meth:`SchedulerSession.restore` replays it, which — everything being
  deterministic — reproduces the exact engine state, decision stream and
  final outcome.  A session survives a restart only through a snapshot its
  owner kept; a malformed snapshot is refused with the field named.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from repro.exceptions import (
    InvalidParameterError,
    SessionStateError,
    StreamingNotSupportedError,
    TraceSchemaError,
)
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.stepper import DecisionEvent
from repro.solvers.facade import _build_policy, _ENGINES, outcome_from_result
from repro.solvers.outcome import SolveOutcome
from repro.solvers.registry import available_algorithms, get_solver
from repro.utils.serialization import canonical_json, jsonify
from repro.workloads.rows import parse_job_row

__all__ = ["SchedulerSession", "open_session", "streaming_algorithms", "SNAPSHOT_SCHEMA_VERSION"]

#: Bump when the snapshot payload layout changes; restore refuses mismatches
#: instead of silently misreading an old snapshot.
SNAPSHOT_SCHEMA_VERSION = 1


def streaming_algorithms() -> list[str]:
    """Ids of all registered solvers that can run as a streaming session."""
    return sorted(
        algorithm_id
        for algorithm_id, spec in available_algorithms().items()
        if spec.supports_streaming
    )


def _session_class(algorithm: str) -> type:
    """Session class for ``algorithm``: adaptive solvers get the meta wrapper.

    Solvers tagged ``"adaptive"`` open as
    :class:`~repro.adaptive.meta.MetaSchedulerSession` (adds ``hot_switch``
    and live telemetry); everything else gets the plain
    :class:`SchedulerSession`.  Imported lazily — the adaptive package sits
    on top of this module.
    """
    spec = get_solver(algorithm)
    if "adaptive" in spec.tags:
        from repro.adaptive.meta import MetaSchedulerSession

        return MetaSchedulerSession
    return SchedulerSession


def _normalise_machines(machines: "int | Sequence[Machine]", alpha: float) -> tuple[Machine, ...]:
    if isinstance(machines, int):
        return Machine.fleet(machines, alpha=alpha)
    fleet = tuple(machines)
    if not fleet or not all(isinstance(m, Machine) for m in fleet):
        raise InvalidParameterError(
            "machines must be a positive integer or a non-empty sequence of Machine"
        )
    return fleet


class SchedulerSession:
    """A long-running, resumable streaming run of one registered algorithm.

    Built through :func:`open_session`; see the module docstring for the
    ingestion/processing contract.  The session owns a policy, an engine in
    the requested dispatch mode, and an :class:`EngineStepper`; every
    scheduling decision the stepper makes is buffered in the session's
    decision-event stream until :meth:`poll` hands it out.
    """

    def __init__(
        self,
        algorithm: str = "rejection-flow",
        machines: "int | Sequence[Machine]" = 4,
        *,
        alpha: float = 3.0,
        dispatch: str | None = None,
        name: str | None = None,
        **params: Any,
    ) -> None:
        spec = get_solver(algorithm)
        if not spec.supports_streaming:
            raise StreamingNotSupportedError(
                f"algorithm {algorithm!r} (model {spec.model!r}) does not support "
                f"streaming sessions; streaming-capable: {streaming_algorithms()}"
            )
        self.spec = spec
        self.params = spec.validate_params(params)
        self.machines = _normalise_machines(machines, alpha)
        self.name = name or f"session:{algorithm}"
        self.policy = _build_policy(spec, self.params)
        fleet_instance = Instance(self.machines, (), name=self.name)
        self.engine = _ENGINES[spec.model](fleet_instance, dispatch=dispatch)
        #: Events emitted but not handed out yet; freed in place once handed
        #: out (the stepper's observer is this list's ``append``).
        self._events: list[DecisionEvent] = []
        self._stepper = self.engine.stepper(self.policy, observer=self._events.append)
        self._jobs: list[Job] = []
        self._watermark = 0.0
        #: Events handed out so far, and the time of the newest of them.
        self._consumed = 0
        self._consumed_time = 0.0
        self._ops: list[tuple] = []
        self._outcome: SolveOutcome | None = None

    # -- introspection -------------------------------------------------------------

    @property
    def algorithm(self) -> str:
        """Registry id the session runs."""
        return self.spec.algorithm_id

    @property
    def dispatch(self) -> str:
        """Dispatch mode of the underlying engine (``indexed``/``scan``)."""
        return self.engine.dispatch

    @property
    def time(self) -> float:
        """Simulation time of the last processed event."""
        return self._stepper.state.time

    @property
    def num_submitted(self) -> int:
        """Number of jobs ingested so far."""
        return len(self._jobs)

    @property
    def finalized(self) -> bool:
        """``True`` once :meth:`finalize` has sealed the run."""
        return self._outcome is not None

    @property
    def events(self) -> tuple[DecisionEvent, ...]:
        """Decision events emitted but not handed out yet.

        Events handed out by :meth:`poll`/:meth:`advance_to`/
        :meth:`take_events` are freed, so after an ingest-then-finalize run
        this is the whole stream.
        """
        return tuple(self._events)

    @property
    def events_emitted(self) -> int:
        """Total decision events emitted so far (handed out or still buffered).

        Monotone over the session's lifetime — the service layer reports it
        per hosted session.
        """
        return self._consumed + len(self._events)

    def __len__(self) -> int:
        return len(self._jobs)

    def stats(self) -> dict:
        """Live observability counters, derived when called.

        ``dispatched``, ``completed`` and ``rejected`` count the stepper's
        dispatch map and records; ``started`` counts the jobs that completed,
        were rejected while running or run now.  ``backlog`` counts jobs in
        flight — submitted but neither completed nor rejected;
        ``last_event_time`` is the timestamp of the newest decision event
        (0.0 before any).  Also the payload of the service wire protocol's
        ``stats`` op.
        """
        stepper = self._stepper
        records = stepper.records.values()
        rejected = sum(record.rejected for record in records)
        started = sum(record.start is not None for record in records)
        started += sum(ms.running is not None for ms in stepper.state.machines)
        submitted = len(self._jobs)
        return {
            "algorithm": self.spec.algorithm_id,
            "dispatch": self.engine.dispatch,
            "finalized": self.finalized,
            "submitted": submitted,
            "dispatched": len(stepper.dispatched),
            "started": started,
            "completed": len(records) - rejected,
            "rejected": rejected,
            "backlog": submitted - len(records),
            "events_emitted": self.events_emitted,
            # Decision events are emitted in time order.
            "last_event_time": self._events[-1].time if self._events else self._consumed_time,
            "watermark": self._watermark,
        }

    # -- ingestion -----------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Ingest one job: :meth:`submit_many` of ``[job]``."""
        self.submit_many((job,))

    def submit_many(self, jobs) -> int:
        """Ingest a batch: an iterable of :class:`Job` or a ``JobChunk``.

        ``JobChunk`` rows (the bulk format of the chunked generators,
        :meth:`~repro.workloads.generators.InstanceGenerator.iter_job_chunks`)
        are bulk-validated once and materialised through the trusted path.
        Returns the number of jobs ingested.

        Every job must match the machine count, keep releases non-decreasing
        across submissions and carry an unused id; a batch that breaks the
        contract anywhere is refused whole.  One op-log entry covers the
        batch.
        """
        self._require_open("submit")
        rows: list[Job]
        if hasattr(jobs, "validate") and hasattr(jobs, "jobs"):  # JobChunk duck type
            jobs.validate()
            rows = jobs.jobs()
        else:
            rows = list(jobs)
        if not rows:
            return 0
        num_machines = len(self.machines)
        watermark = self._watermark
        for job in rows:
            if not isinstance(job, Job):
                raise InvalidParameterError(f"submit expects Job rows, got {type(job).__name__}")
            if len(job.sizes) != num_machines:
                raise InvalidParameterError(
                    f"job {job.id}: size vector has {len(job.sizes)} entries, "
                    f"expected {num_machines}"
                )
            if job.release < watermark:
                raise SessionStateError(
                    f"job {job.id} released at {job.release} arrives before the session's "
                    f"ingest watermark {watermark}; submissions must be "
                    "non-decreasing in release date"
                )
            watermark = job.release
        count = self._stepper.offer_many(rows)
        self._jobs.extend(rows)
        self._watermark = watermark
        self._record_jobs(count)
        return count

    # -- processing / observation --------------------------------------------------

    def poll(self) -> list[DecisionEvent]:
        """Process everything up to the newest submitted release; return new events.

        The returned list contains only events not yet handed out; the
        session frees them.
        """
        self._require_open("poll")
        processed = self._stepper.advance_to(self._watermark)
        if processed:
            # A poll that processed nothing is a replay no-op (the watermark
            # is unchanged, so it neither advances state nor moves the
            # ingest bound); skipping it keeps the op log — and every
            # snapshot — from growing with one entry per quiet poll on the
            # serve hot path.
            self._record_advance(self._watermark)
        return self._new_events()

    def advance_to(self, t: float) -> list[DecisionEvent]:
        """Process every event up to time ``t``; return new events.

        Advancing past the ingest watermark is the caller's declaration that
        no job with an earlier release will be submitted afterwards (later
        out-of-order submissions are rejected).  ``t = inf`` declares the
        end of the stream; NaN bounds nothing and is refused.
        """
        self._require_open("advance_to")
        if math.isnan(t):
            raise InvalidParameterError("cannot advance_to NaN; t must be a number")
        self._stepper.advance_to(t)
        self._watermark = max(self._watermark, t)
        self._record_advance(t)
        return self._new_events()

    def _record_jobs(self, count: int) -> None:
        """Record ``count`` submissions, coalescing consecutive submit runs.

        The op log only needs the *interleaving* of submissions and
        advances; the jobs themselves live once in ``self._jobs`` (append
        order = submission order), so a run of submissions is one
        ``("jobs", n)`` entry — O(#advances) log size instead of one entry
        (and one retained tuple) per job on long-lived streams.
        """
        if self._ops and self._ops[-1][0] == "jobs":
            self._ops[-1] = ("jobs", self._ops[-1][1] + count)
        else:
            self._ops.append(("jobs", count))

    def _record_advance(self, t: float) -> None:
        """Append an advance op, compacting the common shapes.

        Two compactions keep the log from growing per-job on long streams:

        * consecutive advances fold into the later one (no submission in
          between, so they replay identically — the bound is monotone and
          processing deterministic);
        * the serve pattern — one submission followed by a poll to its
          release — becomes a run-length ``("each", k)`` entry: k times
          "submit the next job, then advance to its release".
        """
        ops = self._ops
        if ops and ops[-1][0] == "advance":
            ops[-1] = ("advance", max(ops[-1][1], t))
            return
        if ops and ops[-1] == ("jobs", 1) and t == self._jobs[-1].release:
            if len(ops) >= 2 and ops[-2][0] == "each":
                ops[-2] = ("each", ops[-2][1] + 1)
                ops.pop()
            else:
                ops[-1] = ("each", 1)
            return
        ops.append(("advance", t))

    def take_events(self) -> list[DecisionEvent]:
        """Hand out events not yet consumed, without processing anything.

        Unlike :meth:`poll` this works on a finalized session too, so
        callers can collect the events the final drain emitted.
        """
        return self._new_events()

    def _new_events(self) -> list[DecisionEvent]:
        fresh = self._events.copy()
        if fresh:
            self._consumed += len(fresh)
            self._consumed_time = fresh[-1].time
            # The observer holds a reference to the list, so free in place.
            self._events.clear()
        return fresh

    # -- sealing -------------------------------------------------------------------

    def finalize(self) -> SolveOutcome:
        """Drain all remaining events and return the batch facade's outcome.

        The outcome is computed by the exact code path :func:`repro.solve`
        uses (objective breakdown, rejection statistics, policy diagnostics),
        over an :class:`Instance` assembled from the submitted jobs — so a
        replayed instance finalizes to byte-identical schedules and
        objectives.  Idempotent: later calls return the same outcome.
        """
        if self._outcome is not None:
            return self._outcome
        self._stepper.drain()
        # The session enforced the instance invariants (machine count,
        # release ordering, id uniqueness) on every submission, so the
        # assembled instance skips the O(n) re-validation.
        instance = Instance.trusted(self.machines, tuple(self._jobs), name=self.name)
        result = self._stepper.finish(instance)
        self._outcome = outcome_from_result(self.spec, self.params, result, policy=self.policy)
        return self._outcome

    def _require_open(self, action: str) -> None:
        if self._outcome is not None:
            raise SessionStateError(f"cannot {action} on a finalized session")

    # -- snapshots -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Configuration plus the full ingestion/advance op log.

        The snapshot is plain JSON-able data (canonical through
        :func:`repro.utils.serialization.canonical_json`); floats round-trip
        exactly, so :meth:`restore` rebuilds the session by deterministic
        replay — same engine state, same decision stream, same final
        outcome.
        """
        self._require_open("snapshot")
        ops: list[dict] = []
        cursor = 0
        for op in self._ops:
            if op[0] in ("jobs", "each"):
                span = self._jobs[cursor : cursor + op[1]]
                cursor += op[1]
                kind = "submit_many" if op[0] == "jobs" else "submit_poll_each"
                ops.append({"op": kind, "jobs": [job.to_dict() for job in span]})
            else:
                ops.append({"op": "advance", "t": op[1]})
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "algorithm": self.spec.algorithm_id,
            "params": jsonify(self.params),
            "machines": [m.to_dict() for m in self.machines],
            "dispatch": self.engine.dispatch,
            "name": self.name,
            "consumed": self._consumed,
            "ops": ops,
        }

    def to_json(self) -> str:
        """Canonical-JSON form of :meth:`snapshot`."""
        return canonical_json(self.snapshot())

    @classmethod
    def restore(cls, snapshot: "Mapping | str") -> "SchedulerSession":
        """Rebuild a session from a :meth:`snapshot` (dict or JSON string).

        Replays the recorded operations in order; determinism of the engine,
        the policy and the indexed dispatch structures guarantees the
        restored session is in the same state as the one that was
        snapshotted (including the exact decision-event stream).  A
        malformed snapshot raises :class:`SessionStateError` naming the
        missing, mistyped or impossible field (such as a ``consumed`` count
        outside what its replay hands out and emits); job rows are decoded
        with the ``submit`` schema
        (:func:`~repro.workloads.rows.parse_job_row`).  Keys it does not
        read, such as the event-buffer flag older versions wrote, are
        ignored.
        """
        if isinstance(snapshot, str):
            import json

            try:
                snapshot = json.loads(snapshot)
            except (ValueError, RecursionError) as exc:
                raise SessionStateError(
                    f"cannot restore snapshot: not valid JSON ({exc})"
                ) from None
        schema = _snapshot_field(snapshot, "schema", int, "an integer")
        if schema != SNAPSHOT_SCHEMA_VERSION:
            raise SessionStateError(
                f"cannot restore snapshot with schema {schema!r}; "
                f"this version reads schema {SNAPSHOT_SCHEMA_VERSION}"
            )
        algorithm = _snapshot_field(snapshot, "algorithm", str, "a string")
        rows = _snapshot_field(snapshot, "machines", list, "an array")
        try:
            machines = tuple(Machine.from_dict(row) for row in rows)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SessionStateError(
                f"cannot restore snapshot: field 'machines' holds a malformed row ({exc!r})"
            ) from None
        params = _snapshot_field(snapshot, "params", Mapping, "an object")
        ops = _snapshot_field(snapshot, "ops", list, "an array")
        # A hand-written snapshot may leave ``consumed`` out: then only the
        # events its replayed polls hand out count as consumed.
        consumed = None
        if "consumed" in snapshot:
            consumed = _snapshot_field(snapshot, "consumed", int, "an integer")
        if cls is SchedulerSession:
            # Restoring through the base class still honours per-algorithm
            # session classes (the adaptive meta wrapper).
            cls = _session_class(algorithm)
        session = cls(
            algorithm,
            machines,
            dispatch=snapshot.get("dispatch"),
            name=snapshot.get("name"),
            **{str(k): v for k, v in params.items()},
        )
        for index, op in enumerate(ops):
            where = f"ops[{index}]: "
            kind = _snapshot_field(op, "op", str, "a string", where)
            if kind == "submit_many":
                session.submit_many(_snapshot_jobs(op, where))
            elif kind == "submit_poll_each":
                for job in _snapshot_jobs(op, where):
                    session.submit(job)
                    session.poll()
            elif kind == "advance":
                t = _snapshot_field(op, "t", (int, float), "a number", where)
                try:
                    t = float(t)
                except OverflowError:
                    raise SessionStateError(
                        f"cannot restore snapshot: {where}field 't' must be a number, "
                        "got an integer too large for a float"
                    ) from None
                session._stepper.advance_to(t)
                session._watermark = max(session._watermark, t)
                session._ops.append(("advance", t))
            else:
                raise SessionStateError(
                    f"cannot restore snapshot: {where}field 'op' is {kind!r}, not a snapshot op"
                )
        # Already-handed-out events are not re-delivered.  Replaying
        # "submit_poll_each" ops handed theirs out through poll(); raw
        # "advance" ops left theirs buffered, so the first of those go too
        # (in place — the observer holds the list), keeping the newest
        # one's time for stats().  The session that wrote the snapshot had
        # handed out at least what those polls did and at most what it
        # emitted, so any other count is refused.
        if consumed is None:
            consumed = session._consumed
        if not session._consumed <= consumed <= session.events_emitted:
            raise SessionStateError(
                f"cannot restore snapshot: field 'consumed' is {consumed}, but its ops "
                f"emit {session.events_emitted} events and their polls hand out "
                f"{session._consumed}, so it must lie between the two"
            )
        drop = consumed - session._consumed
        if drop:
            session._consumed_time = session._events[drop - 1].time
            del session._events[:drop]
        session._consumed = consumed
        return session


def _snapshot_field(record: Any, key: str, kind: Any, expected: str, where: str = "") -> Any:
    """``record[key]`` if ``record`` is an object and the value has JSON type
    ``kind`` (neither a bool nor NaN is a number); otherwise a
    :class:`SessionStateError` naming the field."""
    value = record.get(key) if isinstance(record, Mapping) else None
    nan = isinstance(value, float) and math.isnan(value)
    if not isinstance(record, Mapping):
        problem = f"expected an object, got {type(record).__name__}"
    elif key not in record:
        problem = f"field {key!r} is missing"
    elif nan or isinstance(value, bool) or not isinstance(value, kind):
        problem = f"field {key!r} must be {expected}, got {'NaN' if nan else type(value).__name__}"
    else:
        return value
    raise SessionStateError(f"cannot restore snapshot: {where}{problem}")


def _snapshot_jobs(op: Mapping, where: str) -> list[Job]:
    """Decode a snapshot op's job rows with the ``submit`` row schema."""
    jobs = []
    for index, row in enumerate(_snapshot_field(op, "jobs", list, "an array", where)):
        try:
            jobs.append(parse_job_row(row, None))
        except TraceSchemaError as exc:
            raise SessionStateError(
                f"cannot restore snapshot: {where}jobs[{index}]: {exc}"
            ) from None
    return jobs


def open_session(
    algorithm: str = "rejection-flow",
    machines: "int | Sequence[Machine]" = 4,
    *,
    alpha: float = 3.0,
    dispatch: str | None = None,
    name: str | None = None,
    **params: Any,
) -> SchedulerSession:
    """Open a streaming :class:`SchedulerSession` for a registered algorithm.

    Parameters
    ----------
    algorithm:
        Registry id of a streaming-capable solver (``supports_streaming`` in
        :func:`repro.list_algorithms`); anything else raises
        :class:`~repro.exceptions.StreamingNotSupportedError`.
    machines:
        A machine count (a fleet of identical unit machines with power
        exponent ``alpha`` is created) or an explicit
        :class:`~repro.simulation.machine.Machine` sequence.
    dispatch:
        Engine dispatch mode override (``indexed``/``scan``);
        defaults to the engine's environment-controlled default.  All modes
        finalize to byte-identical outcomes.
    name:
        Label used for the assembled instance and result.
    params:
        Algorithm parameters, validated against the registry schema before
        the session opens.
    """
    return _session_class(algorithm)(
        algorithm,
        machines,
        alpha=alpha,
        dispatch=dispatch,
        name=name,
        **params,
    )
