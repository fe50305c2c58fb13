"""Adaptive algorithm-switching meta-scheduler.

The paper's online algorithms each dominate a different load regime
(experiment E14 measures it: greedy wins calm traffic, the Theorem-1
rejection algorithm wins overload and heavy tails).  This package exploits
that signal *online*:

* :mod:`repro.adaptive.monitor` — a windowed load-telemetry monitor
  (arrival rate, job-size tail index, backlog depth, rejection rate,
  completed-flow mean) with O(1) per-event updates, fed from the engine's
  :class:`~repro.simulation.stepper.DecisionEvent` stream plus the arrival
  hook;
* :mod:`repro.adaptive.policies` — pluggable switch policies (threshold
  rules and a deterministic bandit-style scorer) with hysteresis/cooldown
  against thrashing;
* :mod:`repro.adaptive.solver` — :class:`MetaSchedulingPolicy`, the
  ``"meta"`` solver registered in the solver registry like any other
  algorithm (``supports_streaming=True``); the controller runs *inside* the
  policy, synchronously with the event loop, so batch ``repro.solve()`` and
  streaming sessions make identical switch decisions and stay
  byte-reproducible across both dispatch modes;
* :mod:`repro.adaptive.meta` — :class:`MetaSchedulerSession`, the streaming
  wrapper adding :meth:`~MetaSchedulerSession.hot_switch` (forced live
  switches via the existing snapshot/restore op-log replay) and live
  telemetry.

Experiment E17 (:mod:`repro.experiments.exp_adaptive`) evaluates the meta
solver on drifting scenarios with regret against the best fixed policy in
hindsight.
"""

from repro.adaptive.monitor import LoadMonitor, TelemetrySnapshot
from repro.adaptive.policies import (
    BanditSwitchPolicy,
    SwitchPolicy,
    ThresholdSwitchPolicy,
    make_switch_policy,
)
from repro.adaptive.solver import MetaSchedulingPolicy, SwitchEvent


def __getattr__(name: str):
    # MetaSchedulerSession pulls in the whole service layer; imported lazily
    # so registering the ``meta`` solver (which imports this package) stays
    # cheap and cycle-free.
    if name == "MetaSchedulerSession":
        from repro.adaptive.meta import MetaSchedulerSession

        return MetaSchedulerSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BanditSwitchPolicy",
    "LoadMonitor",
    "MetaSchedulerSession",
    "MetaSchedulingPolicy",
    "SwitchEvent",
    "SwitchPolicy",
    "TelemetrySnapshot",
    "ThresholdSwitchPolicy",
    "make_switch_policy",
]
