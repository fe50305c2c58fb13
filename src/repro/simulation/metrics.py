"""Objective-value computation over :class:`~repro.simulation.schedule.SimulationResult`.

All metrics follow the paper's accounting conventions:

* the flow time of a rejected job is the time between its release and the
  moment the algorithm decides to reject it;
* energy includes the energy spent on partially executed (rejected) jobs;
* the rejection budget of Theorem 1 is measured in *number of jobs*, the one
  of Theorem 2 in *total weight*.

Float totals are accumulated left to right with ``+=``, never with ``sum()``:
Python 3.12 made ``sum()`` of floats compensated, so it would give other bits
than 3.10 and 3.11, and outcome rows must not depend on the Python version.
The energy and weight totals start from the int ``0``, as ``sum()`` did, so an
empty total stays the int ``0`` it always was.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.schedule import SimulationResult


def total_flow_time(result: SimulationResult, include_rejected: bool = True) -> float:
    """Sum of flow times over all jobs (optionally excluding rejected ones)."""
    total = 0.0
    for record in result.records.values():
        if record.rejected and not include_rejected:
            continue
        total += record.flow_time
    return total


def total_weighted_flow_time(result: SimulationResult, include_rejected: bool = True) -> float:
    """Sum of ``w_j * F_j`` over all jobs (optionally excluding rejected ones)."""
    total = 0.0
    for record in result.records.values():
        if record.rejected and not include_rejected:
            continue
        total += record.weighted_flow_time
    return total


def total_energy(result: SimulationResult) -> float:
    """Total energy ``sum_i integral P_i(s_i(t)) dt`` of the schedule.

    Computed from the execution intervals using each machine's power exponent;
    includes energy spent on jobs that were later rejected while running.
    """
    machines = result.instance.machines
    total = 0
    for iv in result.intervals:
        total += iv.energy(machines[iv.machine].alpha)
    return total


def flow_plus_energy(result: SimulationResult, include_rejected: bool = True) -> float:
    """Weighted flow time plus energy (the Section 3 objective)."""
    return total_weighted_flow_time(result, include_rejected) + total_energy(result)


def rejected_count(result: SimulationResult) -> int:
    """Number of rejected jobs."""
    return sum(1 for record in result.records.values() if record.rejected)


def rejected_fraction(result: SimulationResult) -> float:
    """Fraction of jobs rejected (Theorem 1 budget)."""
    n = len(result.records)
    if n == 0:
        return 0.0
    return rejected_count(result) / n


def rejected_weight(result: SimulationResult) -> float:
    """Total weight of rejected jobs."""
    total = 0
    for record in result.records.values():
        if record.rejected:
            total += record.weight
    return total


def rejected_weight_fraction(result: SimulationResult) -> float:
    """Fraction of total weight rejected (Theorem 2 budget)."""
    total = 0
    for record in result.records.values():
        total += record.weight
    if total == 0:
        return 0.0
    return rejected_weight(result) / total


def max_flow_time(result: SimulationResult, include_rejected: bool = True) -> float:
    """Maximum flow time over the (optionally non-rejected) jobs."""
    flows = [
        record.flow_time
        for record in result.records.values()
        if include_rejected or not record.rejected
    ]
    return max(flows, default=0.0)


@dataclass(frozen=True)
class ResultSummary:
    """A flat bundle of the metrics used throughout the experiment reports."""

    algorithm: str
    num_jobs: int
    num_machines: int
    total_flow_time: float
    total_weighted_flow_time: float
    total_energy: float
    flow_plus_energy: float
    rejected_count: int
    rejected_fraction: float
    rejected_weight_fraction: float
    max_flow_time: float
    makespan: float

    def as_dict(self) -> dict:
        """Plain-dict view (stable key order for reporting)."""
        return {
            "algorithm": self.algorithm,
            "num_jobs": self.num_jobs,
            "num_machines": self.num_machines,
            "total_flow_time": self.total_flow_time,
            "total_weighted_flow_time": self.total_weighted_flow_time,
            "total_energy": self.total_energy,
            "flow_plus_energy": self.flow_plus_energy,
            "rejected_count": self.rejected_count,
            "rejected_fraction": self.rejected_fraction,
            "rejected_weight_fraction": self.rejected_weight_fraction,
            "max_flow_time": self.max_flow_time,
            "makespan": self.makespan,
        }


def summarize(result: SimulationResult) -> ResultSummary:
    """Compute every standard metric of a simulation result at once.

    One pass over the records and one over the intervals.  Each total adds
    in the order and from the start value of its function above, and the
    maxima keep the first of equal values as ``max`` does, so every field
    has the bits and type those functions give.
    """
    flow = 0.0
    weighted_flow = 0.0
    rejected = 0
    weight = 0
    rejected_weight_total = 0
    max_flow = None
    for record in result.records.values():
        record_flow = record.flow_time
        record_weight = record.weight
        flow += record_flow
        weighted_flow += record_weight * record_flow
        weight += record_weight
        if record.rejected:
            rejected += 1
            rejected_weight_total += record_weight
        if max_flow is None or record_flow > max_flow:
            max_flow = record_flow
    machines = result.instance.machines
    energy = 0
    makespan = None
    for iv in result.intervals:
        energy += iv.energy(machines[iv.machine].alpha)
        if makespan is None or iv.end > makespan:
            makespan = iv.end
    num_jobs = len(result.records)
    return ResultSummary(
        algorithm=result.algorithm,
        num_jobs=num_jobs,
        num_machines=result.instance.num_machines,
        total_flow_time=flow,
        total_weighted_flow_time=weighted_flow,
        total_energy=energy,
        flow_plus_energy=weighted_flow + energy,
        rejected_count=rejected,
        rejected_fraction=rejected / num_jobs if num_jobs else 0.0,
        rejected_weight_fraction=rejected_weight_total / weight if weight != 0 else 0.0,
        max_flow_time=0.0 if max_flow is None else max_flow,
        makespan=0.0 if makespan is None else makespan,
    )
