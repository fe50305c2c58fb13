"""``meta`` — the adaptive algorithm-switching scheduling policy.

The meta-scheduler is a :class:`~repro.simulation.engine.FlowTimePolicy`
holding a portfolio of *candidate* streaming solvers (registry ids).  A
:class:`~repro.adaptive.monitor.LoadMonitor` ingests the run's decision
stream; once per arrival a :class:`~repro.adaptive.policies.SwitchPolicy`
looks at the telemetry and may switch the active sub-policy.  Switching
builds a **fresh** sub-policy instance (clean internal counters); the shared
engine state — pending queues, running jobs — carries over, so a switch is
seamless from the jobs' point of view.

Determinism is the load-bearing property.  The controller runs *inside* the
policy, synchronously with the event loop, and every input it sees (monitor
statistics, arrival index) is a pure function of the event-stream prefix.
Hence:

* batch ``repro.solve(..., algorithm="meta")`` and a streaming session over
  the same jobs make identical switch decisions (finalize stays
  byte-identical to batch);
* the two dispatch modes agree byte-for-byte: the meta policy declares no
  ``priority_key`` and no prefix stats, so every sub-policy decision path
  takes the deterministic scan fallbacks in both modes;
* replaying a snapshot's op log re-derives controller switches exactly, so
  snapshots only need to carry *forced* switches — the ``plan`` parameter, a
  tuple of ``"INDEX:ALGORITHM"`` entries applied before the arrival with
  that processed-arrival index.  :meth:`MetaSchedulerSession.hot_switch
  <repro.adaptive.meta.MetaSchedulerSession.hot_switch>` appends to it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.adaptive.monitor import LoadMonitor
from repro.adaptive.policies import SwitchPolicy, make_switch_policy
from repro.exceptions import InvalidParameterError
from repro.simulation.decisions import ArrivalDecision
from repro.simulation.engine import FlowTimePolicy
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.state import EngineState
from repro.simulation.stepper import DecisionEvent

__all__ = ["MetaSchedulingPolicy", "SwitchEvent", "DEFAULT_CANDIDATES", "SWITCH_POLICIES"]

#: Default candidate portfolio.  The first entry is the initial active
#: algorithm: the Lemma-1 immediate-rejection baseline, a safe opening under
#: unknown load (its backlog gate makes it behave like greedy while traffic
#: is light).  Sustained calm evidence relaxes to the rejection-free greedy;
#: heavy tails or saturation escalate to the Theorem-1 rejection algorithm,
#: whose Rule-2 victims are picked in hindsight.  Rejecting candidates are
#: ordered immediate-first, robust-last — the threshold policy relies on
#: that order to pick its shedding algorithm per regime.
DEFAULT_CANDIDATES = ("immediate-rejection", "greedy", "rejection-flow")

#: Recognised values of the ``policy`` parameter; ``"plan"`` disables the
#: controller (only forced ``plan`` entries switch).
SWITCH_POLICIES = ("threshold", "bandit", "plan")


class SwitchEvent(NamedTuple):
    """One algorithm switch: before which arrival, when, to what, and why."""

    index: int
    time: float
    previous: str
    algorithm: str
    source: str  # "threshold" | "bandit" | "plan"

    def as_dict(self) -> dict:
        """Plain-dict view, canonical field order."""
        return dict(self._asdict())


def _validate_sub(algorithm: str):
    """A candidate/plan target must be a streaming engine policy, not meta."""
    from repro.solvers.registry import get_solver

    spec = get_solver(algorithm)
    if (
        spec.model != "fixed-speed"
        or spec.objective != "total-flow-time"
        or not spec.supports_streaming
        or spec.factory is None
        or "adaptive" in spec.tags
    ):
        raise InvalidParameterError(
            f"meta candidate {algorithm!r} must be a streaming fixed-speed "
            "total-flow-time policy (and not itself adaptive)"
        )
    return spec


def _parse_plan(plan: Sequence[str]) -> dict[int, str]:
    """``("idx:alg", ...)`` -> ``{idx: alg}`` (later entries win per index)."""
    forced: dict[int, str] = {}
    for entry in plan:
        text = str(entry)
        index_text, sep, algorithm = text.partition(":")
        if not sep or not algorithm:
            raise InvalidParameterError(
                f"plan entry {text!r} must look like 'INDEX:ALGORITHM'"
            )
        try:
            index = int(index_text)
        except ValueError as exc:
            raise InvalidParameterError(
                f"plan entry {text!r} has a non-integer arrival index"
            ) from exc
        if index < 0:
            raise InvalidParameterError(f"plan entry {text!r} has a negative index")
        _validate_sub(algorithm)
        forced[index] = algorithm
    return forced


class MetaSchedulingPolicy(FlowTimePolicy):
    """Adaptive algorithm-switching policy over the registry's streaming solvers.

    Parameters
    ----------
    candidates:
        Registry ids the controller may switch between; the first is the
        initial active algorithm.  Each must be a streaming fixed-speed
        total-flow-time policy.
    window:
        Monitor window (samples per sliding statistic).
    policy:
        Switch-policy family: ``"threshold"``, ``"bandit"``, or ``"plan"``
        (controller off — only forced plan entries switch).
    cooldown:
        Minimum arrivals between switches (hysteresis).
    margin:
        Bandit's relative-improvement margin (ignored by ``threshold``).
    epsilon:
        Rejection budget forwarded to every candidate whose parameters
        include ``epsilon`` — the whole portfolio plays at the same budget,
        so switch decisions compare like with like.
    plan:
        Forced switches, ``"INDEX:ALGORITHM"`` entries applied before the
        arrival with that processed-arrival index (what
        ``MetaSchedulerSession.hot_switch`` appends to).
    """

    # No priority key and no prefix stats: the engine installs neither the
    # indexed heaps nor the Fenwick trees in either dispatch mode, so every
    # sub-policy query (pending_argmin / pending_spt_stats /
    # spt_lambda_argmin) takes the same deterministic scan fallback
    # everywhere — that is what makes switching byte-reproducible.
    priority_key = None
    wants_prefix_stats = False

    def __init__(
        self,
        candidates: Sequence[str] = DEFAULT_CANDIDATES,
        window: int = 64,
        policy: str = "threshold",
        cooldown: int = 32,
        margin: float = 0.1,
        epsilon: float = 0.25,
        plan: Sequence[str] = (),
    ) -> None:
        self.candidates = tuple(str(c) for c in candidates)
        if not self.candidates:
            raise InvalidParameterError("meta needs at least one candidate")
        for candidate in self.candidates:
            _validate_sub(candidate)
        if policy not in SWITCH_POLICIES:
            raise InvalidParameterError(
                f"policy must be one of {SWITCH_POLICIES}, got {policy!r}"
            )
        if window < 2:
            raise InvalidParameterError(f"window must be >= 2, got {window}")
        self.window = int(window)
        self.policy = policy
        self.cooldown = int(cooldown)
        self.margin = float(margin)
        if not 0.0 < float(epsilon) <= 1.0:
            raise InvalidParameterError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon = float(epsilon)
        self.plan = tuple(str(entry) for entry in plan)
        self._forced = _parse_plan(self.plan)
        self.name = f"meta({policy})"
        self.monitor = LoadMonitor(self.window)
        self._controller: SwitchPolicy | None = None
        self._active = None
        self._active_id = self.candidates[0]
        self._arrival_index = 0
        self.switch_log: list[SwitchEvent] = []

    # -- lifecycle -----------------------------------------------------------------

    def _build_sub(self, algorithm: str, instance: Instance):
        from repro.solvers.facade import _build_policy
        from repro.solvers.registry import get_solver

        spec = get_solver(algorithm)
        params = {"epsilon": self.epsilon} if "epsilon" in spec.param_specs() else {}
        sub = _build_policy(spec, spec.validate_params(params))
        sub.reset(instance)
        return sub

    def reset(self, instance: Instance) -> None:
        """Engine hook: fresh monitor, controller and initial sub-policy."""
        self._instance = instance
        self.monitor = LoadMonitor(self.window)
        if self.policy == "plan":
            self._controller = None
        else:
            kwargs = {"margin": self.margin} if self.policy == "bandit" else {}
            self._controller = make_switch_policy(
                self.policy, self.candidates, cooldown=self.cooldown, **kwargs
            )
            self._controller.reset(instance.num_machines)
        self._arrival_index = 0
        self._active_id = self.candidates[0]
        self._active = self._build_sub(self._active_id, instance)
        self.switch_log = []

    # -- telemetry feed ------------------------------------------------------------

    def observe_decision(self, event: DecisionEvent) -> None:
        """Stepper hook: feed the engine's decision stream into the monitor."""
        self.monitor.observe(event)

    # -- switching -----------------------------------------------------------------

    def _switch(self, index: int, t: float, algorithm: str, source: str) -> None:
        self.switch_log.append(
            SwitchEvent(
                index=index,
                time=t,
                previous=self._active_id,
                algorithm=algorithm,
                source=source,
            )
        )
        self._active_id = algorithm
        self._active = self._build_sub(algorithm, self._instance)
        if self._controller is not None:
            self._controller.record_switch(index, algorithm)

    # -- FlowTimePolicy hooks (delegation) -----------------------------------------

    def on_arrival(self, t: float, job: Job, state: EngineState) -> ArrivalDecision:
        """Decide a possible switch, record telemetry, delegate the dispatch."""
        index = self._arrival_index
        self._arrival_index = index + 1
        forced = self._forced.get(index)
        if forced is not None:
            # Forced plan switches always rebuild, even to the same id —
            # hot_switch relies on a replayed run reproducing the rebuild.
            self._switch(index, t, forced, "plan")
        elif self._controller is not None:
            target = self._controller.decide(self.monitor, self._active_id, index)
            if target is not None and target != self._active_id:
                self._switch(index, t, target, self.policy)
        self.monitor.on_arrival(t, job)
        return self._active.on_arrival(t, job, state)

    def select_next(self, t: float, machine: int, state: EngineState) -> int | None:
        """Delegate local scheduling to the active sub-policy."""
        return self._active.select_next(t, machine, state)

    # -- reporting -----------------------------------------------------------------

    @property
    def active_algorithm(self) -> str:
        """Registry id of the currently active sub-policy."""
        return self._active_id

    @property
    def arrivals_processed(self) -> int:
        """Arrivals the policy has processed (the next arrival's index)."""
        return self._arrival_index

    def diagnostics(self) -> dict:
        """Per-run diagnostics merged into the outcome's extras."""
        return {
            "meta_switches": len(self.switch_log),
            "meta_active": self._active_id,
            "meta_switch_trace": ";".join(
                f"{event.index}:{event.algorithm}" for event in self.switch_log
            ),
        }
