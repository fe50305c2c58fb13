"""Decision dataclasses shared by both non-preemptive engines.

``Rejection`` / ``ArrivalDecision`` are shared by the fixed-speed and the
speed-scaling execution models.  ``StartDecision`` is only meaningful in the
speed-scaling model (fixed-speed machines derive the speed from the machine
spec), but it lives here with its siblings so policies import every decision
type from one module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import SimulationError
from repro.simulation.job import trusted_builder


@dataclass(frozen=True, slots=True)
class Rejection:
    """A request by a policy to reject a specific job right now."""

    job_id: int
    reason: str = "policy"


@dataclass(frozen=True, slots=True)
class ArrivalDecision:
    """Decision returned by a policy's ``on_arrival`` hook.

    Attributes
    ----------
    machine:
        Index of the machine the arriving job is dispatched to, or ``None``
        to reject the arriving job immediately (immediate-rejection baselines).
    rejections:
        Other jobs to reject at the arrival instant (pending or running jobs,
        on any machine).  Used by the paper's Rule 1 / Rule 2 and by the
        weighted rejection rule of the speed-scaling algorithm.
    """

    machine: int | None
    rejections: tuple[Rejection, ...] = ()

    @staticmethod
    def dispatch(machine: int, rejections: Sequence[Rejection] = ()) -> "ArrivalDecision":
        """Dispatch the arriving job to ``machine`` with optional extra rejections."""
        return _build_decision(machine, tuple(rejections))

    @staticmethod
    def reject(rejections: Sequence[Rejection] = ()) -> "ArrivalDecision":
        """Reject the arriving job immediately."""
        return _build_decision(None, tuple(rejections))


#: Every policy decides each arrival through ``dispatch``/``reject``; the
#: class has no checks, so building through its slots drops only cost.
_build_decision = trusted_builder(ArrivalDecision)


@dataclass(frozen=True, slots=True)
class StartDecision:
    """Which pending job to start and at what (constant) speed."""

    job_id: int
    speed: float

    def __post_init__(self) -> None:
        if not (self.speed > 0):
            raise SimulationError(f"start speed must be positive, got {self.speed}")
