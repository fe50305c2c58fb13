"""Discrete timeline for the Section 4 energy-minimisation problem.

Section 4 of the paper works with *discretised* times and speeds (losing only
a ``(1 + epsilon)`` factor).  A job's execution is specified by a *strategy*:
the machine, the starting slot and a constant speed; the strategy determines
the completion time.  The online algorithm greedily picks the strategy with
the minimum marginal increase of energy.

:class:`DiscreteTimeline` maintains, for every machine, the speed profile
``u_i(t)`` accumulated by the strategies committed so far, and answers the
marginal-energy queries the greedy algorithm needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import InfeasibleInstanceError, InvalidParameterError, SimulationError
from repro.simulation.instance import Instance
from repro.simulation.job import Job


@dataclass(frozen=True, slots=True)
class Strategy:
    """A valid execution of a job: machine, starting slot, constant speed.

    ``slots`` is the number of whole timeline slots the execution occupies;
    the execution covers slots ``start_slot, ..., start_slot + slots - 1``.
    """

    job_id: int
    machine: int
    start_slot: int
    speed: float
    slots: int

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise SimulationError(f"strategy of job {self.job_id} occupies no slots")
        if self.speed <= 0:
            raise SimulationError(f"strategy of job {self.job_id} has non-positive speed")

    @property
    def end_slot(self) -> int:
        """First slot *after* the execution."""
        return self.start_slot + self.slots


class DiscreteTimeline:
    """Per-machine speed profiles over a uniform slot grid.

    Parameters
    ----------
    num_machines:
        Number of machines.
    num_slots:
        Number of slots in the horizon.
    slot_length:
        Physical length of each slot (all energies scale linearly with it).
    power:
        Either a single callable ``P(s)`` applied to every machine or a
        sequence of per-machine callables (unrelated power functions are
        allowed; Theorem 3 only needs (λ, μ)-smoothness, not convexity).
    """

    def __init__(
        self,
        num_machines: int,
        num_slots: int,
        slot_length: float = 1.0,
        power: Callable[[float], float] | Sequence[Callable[[float], float]] | None = None,
        alpha: float | Sequence[float] = 3.0,
    ) -> None:
        if num_machines <= 0:
            raise InvalidParameterError("num_machines must be positive")
        if num_slots <= 0:
            raise InvalidParameterError("num_slots must be positive")
        if slot_length <= 0:
            raise InvalidParameterError("slot_length must be positive")
        self.num_machines = num_machines
        self.num_slots = num_slots
        self.slot_length = slot_length
        # numpy loads here, with the first timeline, not on ``import repro``.
        import numpy as np

        self._speeds = np.zeros((num_machines, num_slots), dtype=float)

        if power is None:
            alphas = [alpha] * num_machines if isinstance(alpha, (int, float)) else list(alpha)
            if len(alphas) != num_machines:
                raise InvalidParameterError(
                    f"need one alpha per machine ({num_machines}), got {len(alphas)}"
                )
            # Clip tiny negative speeds (floating-point undo noise) before the
            # power so fractional alphas never produce NaN.
            self._powers: list[Callable[[float], float]] = [
                (lambda s, a=a: (s if s > 0.0 else 0.0) ** a) for a in alphas
            ]
        elif callable(power):
            self._powers = [power] * num_machines
        else:
            powers = list(power)
            if len(powers) != num_machines:
                raise InvalidParameterError(
                    f"need one power function per machine ({num_machines}), got {len(powers)}"
                )
            self._powers = powers

    # -- slot arithmetic -----------------------------------------------------------

    def slot_of(self, time: float) -> int:
        """Slot index containing physical time ``time`` (clipped to the horizon)."""
        return min(self.num_slots - 1, max(0, int(math.floor(time / self.slot_length))))

    def time_of(self, slot: int) -> float:
        """Physical start time of slot ``slot``."""
        return slot * self.slot_length

    # -- speed profile queries -----------------------------------------------------

    def speed_at(self, machine: int, slot: int) -> float:
        """Current accumulated speed ``u_i(t)`` of ``machine`` in ``slot``."""
        return float(self._speeds[machine, slot])

    def machine_energy(self, machine: int) -> float:
        """Energy currently consumed by ``machine`` over the whole horizon."""
        p = self._powers[machine]
        return float(sum(p(s) for s in self._speeds[machine]) * self.slot_length)

    def total_energy(self) -> float:
        """Energy currently consumed by all machines."""
        return sum(self.machine_energy(i) for i in range(self.num_machines))

    # -- marginal energy / commitment ----------------------------------------------

    def marginal_energy(self, machine: int, start_slot: int, slots: int, speed: float) -> float:
        """Energy increase of adding ``speed`` to ``slots`` slots of ``machine``.

        This is the quantity the Section 4 greedy minimises:
        ``sum_t [P_i(u_it + v) - P_i(u_it)]`` over the execution slots.
        """
        if start_slot < 0 or start_slot + slots > self.num_slots:
            raise SimulationError(
                f"slots [{start_slot}, {start_slot + slots}) outside horizon [0, {self.num_slots})"
            )
        p = self._powers[machine]
        window = self._speeds[machine, start_slot : start_slot + slots]
        return float(sum(p(u + speed) - p(u) for u in window) * self.slot_length)

    def commit(self, strategy: Strategy) -> float:
        """Apply a strategy to the timeline and return its marginal energy."""
        delta = self.marginal_energy(
            strategy.machine, strategy.start_slot, strategy.slots, strategy.speed
        )
        self._speeds[strategy.machine, strategy.start_slot : strategy.end_slot] += strategy.speed
        return delta

    # -- strategy enumeration ------------------------------------------------------

    def feasible_strategies(
        self,
        job: Job,
        machine: int,
        speed_grid: Iterable[float],
    ) -> list[Strategy]:
        """All valid (start slot, speed) strategies for ``job`` on ``machine``.

        A strategy is valid when the whole execution fits inside the job's
        ``[release, deadline]`` window and inside the horizon.  Durations are
        rounded *up* to whole slots, so committing a strategy never finishes a
        job later than its continuous-time completion.
        """
        if job.deadline is None:
            raise InfeasibleInstanceError(
                f"job {job.id} has no deadline; the energy-minimisation model requires one"
            )
        volume = job.size_on(machine)
        if math.isinf(volume):
            return []
        release_slot = int(math.ceil(job.release / self.slot_length - 1e-12))
        deadline_slot = int(math.floor(job.deadline / self.slot_length + 1e-12))
        strategies: list[Strategy] = []
        for speed in speed_grid:
            if speed <= 0:
                continue
            duration = volume / speed
            slots = max(1, int(math.ceil(duration / self.slot_length - 1e-12)))
            last_start = min(deadline_slot - slots, self.num_slots - slots)
            for start in range(max(0, release_slot), last_start + 1):
                strategies.append(
                    Strategy(
                        job_id=job.id,
                        machine=machine,
                        start_slot=start,
                        speed=speed,
                        slots=slots,
                    )
                )
        return strategies

    @staticmethod
    def for_instance(
        instance: Instance,
        slot_length: float = 1.0,
        horizon: float | None = None,
    ) -> "DiscreteTimeline":
        """Build a timeline sized for an instance with deadlines."""
        if horizon is None:
            horizon = max(
                (job.deadline for job in instance.jobs if job.deadline is not None),
                default=instance.horizon(),
            )
        num_slots = max(1, int(math.ceil(horizon / slot_length)))
        alphas = [m.alpha for m in instance.machines]
        return DiscreteTimeline(
            num_machines=instance.num_machines,
            num_slots=num_slots,
            slot_length=slot_length,
            alpha=alphas,
        )
