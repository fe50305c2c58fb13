"""Non-preemptive speed-scaling engine (Section 3 execution model).

Machines can run at any non-negative speed; running at speed ``s`` consumes
power ``P(s) = s**alpha``.  A job is executed non-preemptively at a *constant*
speed chosen when it starts (the paper's algorithm fixes the speed at start
time and never changes it).  Rejecting a running job interrupts it; the energy
already spent is still accounted for in the measured objective.

The event loop is shared with
:class:`~repro.simulation.engine.FlowTimeEngine` through
:class:`~repro.simulation.engine.NonPreemptiveEngine`; here a start decision
carries a speed, and the result's extras record the total energy.  The
decision dataclasses likewise live in :mod:`repro.simulation.decisions` and
are shared by both models.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.exceptions import SimulationError
from repro.simulation.decisions import ArrivalDecision, StartDecision
from repro.simulation.engine import NonPreemptiveEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.schedule import ExecutionInterval, SimulationResult
from repro.simulation.state import EngineState, MachineState

__all__ = [
    "StartDecision",
    "SpeedScalingPolicy",
    "SpeedScalingEngine",
    "run_speed_policy",
]


class SpeedScalingPolicy(ABC):
    """Interface implemented by online speed-scaling scheduling policies."""

    #: Human-readable name used in result labels and reports.
    name: str = "speed-scaling-policy"

    #: Static local-order hook (see
    #: :attr:`repro.simulation.engine.FlowTimePolicy.priority_key`); the
    #: density order of Section 3 is static, so the Theorem 2 policy opts in.
    priority_key = None

    #: See :attr:`repro.simulation.engine.FlowTimePolicy.wants_prefix_stats`.
    wants_prefix_stats = False

    def reset(self, instance: Instance) -> None:  # noqa: B027 - optional hook
        """Prepare internal state for a new run (default: nothing)."""

    @abstractmethod
    def on_arrival(self, t: float, job: Job, state: EngineState) -> ArrivalDecision:
        """Dispatch (or reject) the job released at time ``t``."""

    @abstractmethod
    def select_next(self, t: float, machine: int, state: EngineState) -> StartDecision | None:
        """Pick the pending job to start on an idle machine and its speed."""


class SpeedScalingEngine(NonPreemptiveEngine):
    """Discrete-event simulator for non-preemptive speed-scaling scheduling."""

    def _pick_start(
        self, t: float, policy: SpeedScalingPolicy, ms: MachineState, state: EngineState
    ) -> tuple[Job, float, float] | None:
        decision = policy.select_next(t, ms.index, state)
        if decision is None:
            return None
        if decision.job_id not in ms.pending:
            raise SimulationError(
                f"policy {policy.name!r} started job {decision.job_id} which is not pending "
                f"on machine {ms.index}"
            )
        job = state.job(decision.job_id)
        volume = job.size_on(ms.index)
        duration = volume / decision.speed
        if not math.isfinite(duration):
            raise SimulationError(
                f"job {decision.job_id} has infinite duration on machine {ms.index}"
            )
        return job, decision.speed, duration

    def _result_extras(self, intervals: list[ExecutionInterval], event_count: int) -> dict:
        machines = self.instance.machines
        energy = 0
        for iv in intervals:
            energy += iv.energy(machines[iv.machine].alpha)
        return {"events": event_count, "energy": energy}


def run_speed_policy(
    instance: Instance, policy: SpeedScalingPolicy, dispatch: str | None = None
) -> SimulationResult:
    """Convenience wrapper: simulate ``policy`` on ``instance``."""
    return SpeedScalingEngine(instance, dispatch=dispatch).run(policy)
