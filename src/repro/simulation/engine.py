"""Non-preemptive flow-time engine (unit-speed / fixed-speed machines).

This is the execution model of Section 2 of the paper: jobs arrive online,
are dispatched to a machine immediately, wait in the machine's queue, and run
non-preemptively once started.  The only way to stop a started job is to
*reject* it (Rejection Rule 1), which discards it.

The engine is policy-driven.  A policy implements three hooks:

``on_arrival(t, job, state)``
    Called when a job is released.  Returns an :class:`ArrivalDecision`:
    which machine to dispatch to (or reject the job immediately), plus an
    optional list of other jobs to reject right now (pending or running).

``select_next(t, machine, state)``
    Called whenever a machine is idle and has pending jobs.  Returns the id
    of the pending job to start, or ``None`` to leave the machine idle until
    the next event (the paper's algorithms never idle deliberately).

``reset(instance)``
    Called once per run before any event, so stateful policies (counters)
    can be reused across runs.

The event loop itself (arrival bookkeeping, stale-completion filtering,
rejection of pending or running jobs) is shared with the speed-scaling engine
via :class:`NonPreemptiveEngine` and lives in the reentrant
:class:`~repro.simulation.stepper.EngineStepper`; the two models differ only
in how a start decision translates into a ``(speed, duration)`` pair and in
the extras they attach to the result.  :meth:`NonPreemptiveEngine.run` is the
batch wrapper — offer every job, drain, finish — while streaming callers
(:mod:`repro.service`) drive a stepper directly.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod

from repro.exceptions import SimulationError
from repro.simulation.decisions import ArrivalDecision, Rejection
from repro.simulation.fused import FusedStepper
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.schedule import ExecutionInterval, SimulationResult
from repro.simulation.state import EngineState, MachineState
from repro.simulation.stepper import DecisionEvent, EngineStepper

__all__ = [
    "ArrivalDecision",
    "Rejection",
    "DecisionEvent",
    "EngineStepper",
    "FlowTimePolicy",
    "FlowTimeEngine",
    "NonPreemptiveEngine",
    "run_policy",
    "default_dispatch_mode",
]

#: Recognised dispatch modes: ``"indexed"`` runs the fused fast path
#: (:mod:`repro.simulation.fused`) — select-next argmins from
#: lazily-invalidated per-machine heaps (:mod:`repro.simulation.indexed`), a
#: fused λ-sweep, an array event queue and a fused event loop; ``"scan"``
#: runs the reference :class:`EngineStepper` with linear scans, the
#: differential oracle.  Both produce byte-identical schedules; the
#: equivalence suite asserts it.
DISPATCH_MODES = ("indexed", "scan")

#: Environment override for the default mode, read at engine construction so
#: CLI runs (campaigns included) and tests can pin it without code changes.
DISPATCH_ENV_VAR = "REPRO_DISPATCH"


def default_dispatch_mode() -> str:
    """The dispatch mode engines use when none is passed explicitly."""
    mode = os.environ.get(DISPATCH_ENV_VAR, "indexed")
    if mode not in DISPATCH_MODES:
        raise SimulationError(
            f"{DISPATCH_ENV_VAR} must be one of {DISPATCH_MODES}, got {mode!r}"
        )
    return mode


class FlowTimePolicy(ABC):
    """Interface implemented by online flow-time scheduling policies."""

    #: Human-readable name used in result labels and reports.
    name: str = "flow-time-policy"

    #: Static local-order hook: policies whose pending order never changes
    #: while a job waits override this with a method
    #: ``priority_key(job, machine) -> tuple`` (key must end in ``job.id``),
    #: which lets the engine maintain the select-next argmin in per-machine
    #: heaps.  ``None`` (the default) keeps scan semantics — correct for any
    #: policy, mandatory for time-varying keys.
    priority_key = None

    #: Policies whose dispatch surrogate needs order statistics over the
    #: pending set (count/size-sum of jobs preceding a candidate in the
    #: priority order) set this to ``True``; the engine then maintains
    #: per-machine Fenwick trees the policy queries through
    #: ``state.prefix_stats``.  Requires ``priority_key``.
    wants_prefix_stats = False

    def reset(self, instance: Instance) -> None:  # noqa: B027 - optional hook
        """Prepare internal state for a new run (default: nothing)."""

    @abstractmethod
    def on_arrival(self, t: float, job: Job, state: EngineState) -> ArrivalDecision:
        """Dispatch (or reject) the job released at time ``t``."""

    @abstractmethod
    def select_next(self, t: float, machine: int, state: EngineState) -> int | None:
        """Pick the pending job to start on an idle machine (or ``None``)."""


class NonPreemptiveEngine(ABC):
    """Shared event loop of the two non-preemptive discrete-event simulators.

    Subclasses define how an idle machine turns a policy's start decision into
    a running job (:meth:`_pick_start`) and which extras the result carries
    (:meth:`_result_extras`); everything else — event ordering, dispatching,
    rejection of pending or running jobs, record bookkeeping — is identical in
    the fixed-speed and speed-scaling models and lives here.
    """

    def __init__(self, instance: Instance, dispatch: str | None = None) -> None:
        self.instance = instance
        self.dispatch = default_dispatch_mode() if dispatch is None else dispatch
        if self.dispatch not in DISPATCH_MODES:
            raise SimulationError(
                f"dispatch must be one of {DISPATCH_MODES}, got {self.dispatch!r}"
            )

    # -- public API ----------------------------------------------------------------

    def stepper(self, policy, observer=None) -> EngineStepper:
        """Begin a reentrant run of ``policy``: an :class:`EngineStepper`.

        The stepper owns the event loop state; jobs are ingested with
        ``offer`` and events processed with ``step``/``advance_to``/``drain``.
        ``indexed`` builds the fused :class:`FusedStepper`, ``scan`` the
        reference :class:`EngineStepper`.
        ``observer`` receives one :class:`DecisionEvent` per scheduling
        decision.
        """
        stepper_cls = FusedStepper if self.dispatch == "indexed" else EngineStepper
        return stepper_cls(self, policy, observer=observer)

    def run(self, policy) -> SimulationResult:
        """Simulate ``policy`` on the engine's instance and return the result.

        Batch wrapper over the stepper: every job of the instance is offered
        up front (the identical arrival-seeding order of the historical
        inlined loop), then the queue drains to completion — byte-identical
        results in both dispatch modes.
        """
        stepper = self.stepper(policy)
        stepper.offer_many(self.instance.jobs)
        stepper.drain()
        return stepper.finish()

    # -- model-specific hooks ------------------------------------------------------

    @abstractmethod
    def _pick_start(
        self, t: float, policy, ms: MachineState, state: EngineState
    ) -> tuple[Job, float, float] | None:
        """Ask ``policy`` what to start on idle machine ``ms``.

        Returns ``(job, speed, duration)`` for the job to start now, or
        ``None`` to leave the machine idle until the next event.  Implementors
        validate the policy's choice (pending membership, finite duration).
        """

    def _result_extras(self, intervals: list[ExecutionInterval], event_count: int) -> dict:
        """Extras attached to the simulation result."""
        return {"events": event_count}


class FlowTimeEngine(NonPreemptiveEngine):
    """Discrete-event simulator for non-preemptive flow-time scheduling."""

    def _pick_start(
        self, t: float, policy: FlowTimePolicy, ms: MachineState, state: EngineState
    ) -> tuple[Job, float, float] | None:
        job_id = policy.select_next(t, ms.index, state)
        if job_id is None:
            return None
        if job_id not in ms.pending:
            raise SimulationError(
                f"policy {policy.name!r} started job {job_id} which is not pending "
                f"on machine {ms.index}"
            )
        job = state.job(job_id)
        machine_spec = self.instance.machines[ms.index]
        duration = machine_spec.processing_duration(job.size_on(ms.index))
        if not math.isfinite(duration):
            raise SimulationError(
                f"job {job_id} has infinite processing time on machine {ms.index}"
            )
        return job, machine_spec.speed_factor, duration


def run_policy(
    instance: Instance, policy: FlowTimePolicy, dispatch: str | None = None
) -> SimulationResult:
    """Convenience wrapper: simulate ``policy`` on ``instance``."""
    return FlowTimeEngine(instance, dispatch=dispatch).run(policy)
