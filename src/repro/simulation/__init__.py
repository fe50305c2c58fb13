"""Event-driven scheduling simulator substrate.

This subpackage implements the execution model the paper analyses:

* continuous-time, online arrival of jobs;
* unrelated machines (each job has a machine-dependent size / volume);
* non-preemptive execution — once started a job runs to completion unless the
  algorithm *rejects* it (which interrupts and discards it);
* optionally, speed scaling with power ``P(s) = s**alpha`` (Sections 3 and 4).

The engines are policy-driven: scheduling algorithms implement small policy
interfaces (:class:`~repro.simulation.engine.FlowTimePolicy`,
:class:`~repro.simulation.speed_engine.SpeedScalingPolicy`) and the engines
take care of event ordering, bookkeeping and metric collection.
"""

from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.instance import Instance
from repro.simulation.schedule import (
    ExecutionInterval,
    JobRecord,
    SimulationResult,
)
from repro.simulation.decisions import ArrivalDecision, Rejection, StartDecision
from repro.simulation.engine import (
    FlowTimeEngine,
    FlowTimePolicy,
    NonPreemptiveEngine,
    default_dispatch_mode,
    run_policy,
)
from repro.simulation.indexed import IndexedPending, PendingPrefixStats
from repro.simulation.stepper import DecisionEvent, EngineStepper
from repro.simulation.speed_engine import (
    SpeedScalingEngine,
    SpeedScalingPolicy,
    run_speed_policy,
)

from repro.simulation.timeline import DiscreteTimeline, Strategy
from repro.simulation.metrics import (
    total_flow_time,
    total_weighted_flow_time,
    total_energy,
    rejected_fraction,
    rejected_weight_fraction,
    summarize,
)
from repro.simulation.validation import validate_result


__all__ = [
    "Job",
    "Machine",
    "Instance",
    "ExecutionInterval",
    "JobRecord",
    "SimulationResult",
    "DecisionEvent",
    "EngineStepper",
    "FlowTimeEngine",
    "FlowTimePolicy",
    "NonPreemptiveEngine",
    "IndexedPending",
    "PendingPrefixStats",
    "default_dispatch_mode",
    "ArrivalDecision",
    "Rejection",
    "SpeedScalingEngine",
    "SpeedScalingPolicy",
    "StartDecision",
    "run_policy",
    "run_speed_policy",
    "DiscreteTimeline",
    "Strategy",
    "total_flow_time",
    "total_weighted_flow_time",
    "total_energy",
    "rejected_fraction",
    "rejected_weight_fraction",
    "summarize",
    "validate_result",
]
