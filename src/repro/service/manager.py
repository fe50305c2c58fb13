"""Multi-session lifecycle management over :class:`SchedulerSession`.

The :class:`SessionManager` is the transport-agnostic core of the scheduling
service: it hosts many named streaming sessions — one per tenant/stream —
and owns everything about them except the wire:

* **Lifecycle.**  ``create`` → (``submit`` | ``poll`` | ``advance``)* →
  ``close``.  A session is ``open`` until closed; ``close`` drains it,
  finalizes into the batch facade's
  :class:`~repro.solvers.outcome.SolveOutcome` row, then drops the
  :class:`SchedulerSession` and keeps a :class:`ClosedSession` record (state
  ``closed``) for listing — a long-running server's memory does not grow
  with every session it has served.  A session whose finalize raised is
  ``failed`` — the *unclean* state shutdown exit codes report.
* **Backpressure.**  Each hosted session bounds its *offer queue*: jobs
  submitted but not yet processed by a ``poll``/``advance``/``close``.  A
  submission that would push the queue past ``max_pending`` is refused with
  ``accepted=False`` (the wire layer turns that into a ``throttled``
  response) and **not** ingested — a slow consumer that never polls can
  never grow server memory without bound.
* **Snapshots.**  :meth:`SessionManager.snapshot` hands the client a
  session's op log (:meth:`SchedulerSession.snapshot`) and
  :meth:`SessionManager.restore` hosts a session rebuilt from one;
  determinism of the op-log replay makes the restored session continue
  byte-identically.  The manager persists nothing: a session outlives its
  server only through a snapshot its client kept.

Everything here is synchronous and deterministic; the asyncio server in
:mod:`repro.service.server` and the blocking stdio ``repro serve`` path are
both thin clients of this class, so the two share error handling and
lifecycle semantics by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.exceptions import ServiceError, SessionStateError
from repro.service.session import SchedulerSession, open_session
from repro.simulation.job import Job
from repro.simulation.stepper import DecisionEvent

__all__ = [
    "DEFAULT_MAX_PENDING",
    "MAX_MACHINES",
    "ClosedSession",
    "HostedSession",
    "SessionManager",
    "SubmitOutcome",
]

#: Default bound on jobs submitted but not yet processed, per session.
DEFAULT_MAX_PENDING = 4096

#: Most machines one session may have.  Building a fleet costs time and memory
#: linearly on the server's event loop (200,000 machines took 1.4 s of CPU and
#: 156 MiB on a 2-vCPU x86-64 host), and the largest fleet the shipped grids
#: and benchmarks run is 16.
MAX_MACHINES = 1024


@dataclass(frozen=True)
class SubmitOutcome:
    """Result of a submission attempt against a hosted session.

    ``accepted=False`` is the backpressure refusal: nothing was ingested and
    ``pending`` tells the caller how much unprocessed work the session is
    already holding (poll to drain, then retry).
    """

    accepted: bool
    count: int
    pending: int
    max_pending: int


class _FinishedPolicy(NamedTuple):
    """A closed session's policy, reduced to its final diagnostics."""

    final_diagnostics: dict

    def diagnostics(self) -> dict:
        return dict(self.final_diagnostics)


@dataclass(frozen=True)
class ClosedSession:
    """What a closed session leaves behind: its values frozen at close.

    The read-only surface the manager still serves for a closed session —
    the ``sessions`` status fields, the ``stats`` counters and the policy's
    final diagnostics — without the stepper state, job list, op log and
    outcome of the :class:`SchedulerSession` it replaces.
    """

    algorithm: str
    dispatch: str
    num_submitted: int
    events_emitted: int
    time: float
    policy: _FinishedPolicy
    final_stats: dict

    @classmethod
    def freeze(cls, session: SchedulerSession) -> "ClosedSession":
        policy = session.policy
        return cls(
            algorithm=session.algorithm,
            dispatch=session.dispatch,
            num_submitted=session.num_submitted,
            events_emitted=session.events_emitted,
            time=session.time,
            policy=_FinishedPolicy(
                policy.diagnostics() if hasattr(policy, "diagnostics") else {}
            ),
            final_stats=session.stats(),
        )

    def stats(self) -> dict:
        return dict(self.final_stats)


@dataclass
class HostedSession:
    """One named session plus the manager-side state around it."""

    name: str
    #: The live session; replaced by its :class:`ClosedSession` record at close.
    session: "SchedulerSession | ClosedSession"
    max_pending: int
    state: str = "open"
    #: Jobs submitted since the last poll/advance (the bounded offer queue).
    pending_offers: int = 0
    final_row: "dict | None" = None
    error: "str | None" = None

    def describe(self) -> dict[str, Any]:
        """JSON-able status row (the ``sessions`` listing)."""
        return {
            "session": self.name,
            "algorithm": self.session.algorithm,
            "dispatch": self.session.dispatch,
            "state": self.state,
            "submitted": self.session.num_submitted,
            "pending": self.pending_offers,
            "max_pending": self.max_pending,
            "events": self.session.events_emitted,
            "time": self.session.time,
        }


class SessionManager:
    """Host many concurrent named :class:`SchedulerSession` streams.

    Parameters
    ----------
    defaults:
        Session options used when ``create`` is called without explicit
        values: ``algorithm``, ``machines``, ``alpha``, ``dispatch``,
        ``params``.
    max_pending:
        Default bound of the per-session offer queue (see module docstring).
    """

    def __init__(
        self,
        *,
        defaults: "Mapping[str, Any] | None" = None,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_pending <= 0:
            raise ServiceError(f"max_pending must be positive, got {max_pending}")
        self.defaults = dict(defaults or {})
        self.max_pending = max_pending
        self._sessions: dict[str, HostedSession] = {}

    # -- lookup --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def get(self, name: str) -> "HostedSession | None":
        return self._sessions.get(name)

    def _require(self, name: str, *, open_: bool = True) -> HostedSession:
        hosted = self._sessions.get(name)
        if hosted is None:
            raise SessionStateError(
                f"no session named {name!r}; create it first "
                f"(hosted: {sorted(self._sessions) or 'none'})"
            )
        if open_ and hosted.state != "open":
            raise SessionStateError(
                f"session {name!r} is {hosted.state}, not open"
            )
        return hosted

    def sessions(self) -> list[dict[str, Any]]:
        """Status rows for every hosted session, sorted by name."""
        return [self._sessions[name].describe() for name in sorted(self._sessions)]

    def open_sessions(self) -> list[str]:
        """Names of sessions still in the ``open`` state, sorted."""
        return sorted(n for n, h in self._sessions.items() if h.state == "open")

    def unclean_sessions(self) -> list[str]:
        """Names of sessions in the ``failed`` state, sorted."""
        return sorted(n for n, h in self._sessions.items() if h.state == "failed")

    # -- lifecycle -----------------------------------------------------------------

    def create(
        self,
        name: str,
        *,
        algorithm: "str | None" = None,
        machines: "int | Sequence | None" = None,
        alpha: "float | None" = None,
        dispatch: "str | None" = None,
        params: "Mapping[str, Any] | None" = None,
        max_pending: "int | None" = None,
    ) -> HostedSession:
        """Create and host a new named session.

        Unset options fall back to the manager's ``defaults``.  Names are
        unique across the manager's lifetime — re-using the name of a closed
        session is refused so listing rows stay unambiguous.  A machine count
        above :data:`MAX_MACHINES` is refused before any machine is built.
        """
        self._check_new_name(name)
        defaults = self.defaults
        if machines is None:
            machines = defaults.get("machines", 4)
        if isinstance(machines, int) and machines > MAX_MACHINES:
            raise ServiceError(f"machines must be at most {MAX_MACHINES}, got {machines}")
        merged_params = dict(defaults.get("params") or {})
        merged_params.update(params or {})
        # open_session rather than direct construction: per-algorithm session
        # classes (the adaptive meta wrapper) apply to hosted sessions too.
        session = open_session(
            algorithm if algorithm is not None else defaults.get("algorithm", "rejection-flow"),
            machines,
            alpha=alpha if alpha is not None else defaults.get("alpha", 3.0),
            dispatch=dispatch if dispatch is not None else defaults.get("dispatch"),
            name=name,
            **merged_params,
        )
        return self._host(name, session, max_pending)

    def restore(
        self,
        name: str,
        snapshot: "Mapping[str, Any] | str",
        *,
        max_pending: "int | None" = None,
    ) -> HostedSession:
        """Host a session rebuilt from a :meth:`SchedulerSession.snapshot`.

        The restored session continues exactly where the snapshot left off
        (deterministic op-log replay) — on this manager or on another one,
        which is how a session outlives its server.
        """
        self._check_new_name(name)
        return self._host(name, SchedulerSession.restore(snapshot), max_pending)

    def _check_new_name(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ServiceError("session names must be non-empty strings")
        if name in self._sessions:
            raise SessionStateError(
                f"session {name!r} already exists "
                f"(state {self._sessions[name].state}); session names are unique"
            )

    def _host(
        self,
        name: str,
        session: SchedulerSession,
        max_pending: "int | None",
    ) -> HostedSession:
        bound = max_pending if max_pending is not None else self.max_pending
        if bound <= 0:
            raise ServiceError(f"max_pending must be positive, got {bound}")
        hosted = HostedSession(name=name, session=session, max_pending=bound)
        self._sessions[name] = hosted
        return hosted

    # -- operations ----------------------------------------------------------------

    def submit(self, name: str, jobs: "Iterable[Job] | Any") -> SubmitOutcome:
        """Submit jobs to a session, subject to the offer-queue bound.

        ``jobs`` is an iterable of :class:`Job` or a ``JobChunk``.  Either
        the whole batch is ingested or (when it would overflow the bound)
        none of it — partial ingestion would make client retries ambiguous.
        """
        hosted = self._require(name)
        if hasattr(jobs, "validate") and hasattr(jobs, "jobs"):
            batch: Any = jobs
            count = len(jobs)
        else:
            batch = list(jobs)
            count = len(batch)
        if hosted.pending_offers + count > hosted.max_pending:
            return SubmitOutcome(
                accepted=False,
                count=0,
                pending=hosted.pending_offers,
                max_pending=hosted.max_pending,
            )
        ingested = hosted.session.submit_many(batch)
        hosted.pending_offers += ingested
        return SubmitOutcome(
            accepted=True,
            count=ingested,
            pending=hosted.pending_offers,
            max_pending=hosted.max_pending,
        )

    def poll(self, name: str) -> list[DecisionEvent]:
        """Process everything up to the session's ingest watermark."""
        hosted = self._require(name)
        events = hosted.session.poll()
        hosted.pending_offers = 0
        return events

    def advance(self, name: str, t: float) -> list[DecisionEvent]:
        """Process every event up to time ``t`` (declares no earlier arrivals)."""
        hosted = self._require(name)
        events = hosted.session.advance_to(float(t))
        hosted.pending_offers = 0
        return events

    def snapshot(self, name: str) -> dict:
        """The op-log snapshot of an open session, for its client to keep."""
        return self._require(name).session.snapshot()

    def stats(self, name: str) -> dict:
        """Live observability counters of a hosted session (any state).

        The session's :meth:`~repro.service.session.SchedulerSession.stats`
        payload plus the manager-side view (lifecycle state, offer-queue
        depth).  Read-only: works on closed/failed sessions and never
        advances the simulation.
        """
        hosted = self._require(name, open_=False)
        stats = hosted.session.stats()
        stats["state"] = hosted.state
        stats["pending"] = hosted.pending_offers
        stats["max_pending"] = hosted.max_pending
        return stats

    def close(self, name: str) -> tuple[dict, list[DecisionEvent]]:
        """Drain, finalize and close a session.

        Returns ``(SolveOutcome.as_row(), remaining decision events)``.  The
        session itself is dropped: its listing row, ``stats`` counters and
        final row stay, frozen at close.  A finalize failure marks the
        session ``failed`` (the unclean state) and re-raises.
        """
        hosted = self._require(name)
        try:
            outcome = hosted.session.finalize()
            events = hosted.session.take_events()
        except Exception as exc:
            hosted.state = "failed"
            hosted.error = str(exc)
            raise
        hosted.state = "closed"
        hosted.pending_offers = 0
        hosted.final_row = outcome.as_row()
        hosted.session = ClosedSession.freeze(hosted.session)
        return hosted.final_row, events

    def drain(self) -> list[tuple[str, "dict | None", "str | None"]]:
        """Close every open session; never raises.

        Returns ``(name, final_row | None, error | None)`` per drained
        session, sorted by name — the shutdown path: flush each session's
        final summary, record failures instead of aborting the drain.
        """
        results: list[tuple[str, "dict | None", "str | None"]] = []
        for name in self.open_sessions():
            try:
                row, _ = self.close(name)
                results.append((name, row, None))
            except Exception as exc:  # noqa: BLE001 - drain must not abort
                results.append((name, None, str(exc)))
        return results
