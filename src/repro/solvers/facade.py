"""``repro.solve()`` — one algorithm-agnostic entry point for both engines.

The facade looks an algorithm up in the solver registry, validates the
keyword parameters against its declared schema, picks the engine its model
requires (or invokes the reference runner), and returns a uniform
:class:`~repro.solvers.outcome.SolveOutcome`::

    >>> from repro import quick_instance, solve
    >>> outcome = solve(quick_instance(50, 4, seed=0), "rejection-flow", epsilon=0.5)
    >>> outcome.objective, round(outcome.rejected_fraction, 2) <= 1.0
    ('total-flow-time', True)

:func:`make_policy` exposes the construction half on its own for callers that
drive an engine directly (experiments that reuse one engine across many
policies) but still want registry-validated parameters.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import InvalidParameterError, SolverModelError
from repro.simulation.engine import FlowTimeEngine, FlowTimePolicy
from repro.simulation.instance import Instance
from repro.simulation.metrics import summarize
from repro.simulation.schedule import SimulationResult
from repro.simulation.speed_engine import SpeedScalingEngine, SpeedScalingPolicy
from repro.solvers.outcome import ReferenceRun, SolveOutcome
from repro.solvers.registry import SolverSpec, get_solver

_POLICY_BASES = {
    "fixed-speed": FlowTimePolicy,
    "speed-scaling": SpeedScalingPolicy,
}

_ENGINES = {
    "fixed-speed": FlowTimeEngine,
    "speed-scaling": SpeedScalingEngine,
}


def make_policy(algorithm: str, **params: Any):
    """Build the policy object for an engine-model algorithm.

    Parameters are validated against the registry schema exactly as in
    :func:`solve`; the returned policy can be handed to the matching engine
    (``spec.model`` names it) any number of times.
    """
    spec = get_solver(algorithm)
    if spec.factory is None:
        raise InvalidParameterError(
            f"algorithm {algorithm!r} is not policy-based "
            f"(model {spec.model!r}); run it through repro.solve()"
        )
    validated = spec.validate_params(params)
    return _build_policy(spec, validated)


def _build_policy(spec: SolverSpec, validated: dict[str, Any]):
    policy = spec.factory(**validated)
    base = _POLICY_BASES[spec.model]
    if not isinstance(policy, base):
        raise SolverModelError(
            f"algorithm {spec.algorithm_id!r} declares model {spec.model!r} but its "
            f"factory produced {type(policy).__name__}, which is not a {base.__name__}"
        )
    return policy


def solve(
    instance: Instance,
    algorithm: str = "rejection-flow",
    *,
    model: str | None = None,
    dispatch: str | None = None,
    **params: Any,
) -> SolveOutcome:
    """Run ``algorithm`` on ``instance`` and return a uniform outcome.

    Parameters
    ----------
    instance:
        The instance to schedule.
    algorithm:
        Registry id (see :func:`repro.list_algorithms` or
        ``repro solve --list-algorithms``).
    model:
        Optional assertion of the expected execution model
        (``fixed-speed`` / ``speed-scaling`` / ``reference``); a mismatch with
        the algorithm's declared model raises :class:`SolverModelError`
        instead of silently running under a different cost model.
    dispatch:
        Engine dispatch mode override (``indexed`` / ``scan``); defaults to
        the engine's environment-controlled default (``REPRO_DISPATCH``).
        Both modes produce byte-identical
        outcomes.  Only meaningful for policy-based engine algorithms —
        reference solvers and runner-backed algorithms build their own
        execution and reject an explicit override.
    params:
        Algorithm parameters, validated against the registry schema (unknown
        names, wrong types and out-of-range values raise
        :class:`~repro.exceptions.InvalidParameterError` before anything runs).
    """
    spec = get_solver(algorithm)
    if model is not None and model != spec.model:
        raise SolverModelError(
            f"algorithm {algorithm!r} runs under model {spec.model!r}, "
            f"not the requested {model!r}"
        )
    validated = spec.validate_params(params)

    if dispatch is not None and (spec.model == "reference" or spec.runner is not None):
        raise InvalidParameterError(
            f"algorithm {algorithm!r} does not run through a dispatchable engine; "
            "the dispatch override only applies to policy-based engine algorithms"
        )

    if spec.model == "reference":
        ref = spec.runner(instance, **validated)
        if not isinstance(ref, ReferenceRun):
            raise SolverModelError(
                f"reference algorithm {algorithm!r} returned {type(ref).__name__}; "
                "reference runners must return a ReferenceRun"
            )
        return SolveOutcome(
            algorithm=spec.algorithm_id,
            label=ref.label,
            model=spec.model,
            objective=spec.objective,
            objective_value=ref.objective_value,
            breakdown=dict(ref.breakdown),
            params=validated,
            extras=dict(ref.extras),
        )

    policy = None
    if spec.runner is not None:
        result = spec.runner(instance, **validated)
        if not isinstance(result, SimulationResult):
            raise SolverModelError(
                f"algorithm {algorithm!r} (model {spec.model!r}) returned "
                f"{type(result).__name__}; engine-model runners must return a SimulationResult"
            )
    else:
        policy = _build_policy(spec, validated)
        result = _ENGINES[spec.model](instance, dispatch=dispatch).run(policy)

    return outcome_from_result(spec, validated, result, policy=policy)


def outcome_from_result(
    spec: SolverSpec,
    validated: dict[str, Any],
    result: SimulationResult,
    policy: Any = None,
) -> SolveOutcome:
    """Build the uniform :class:`SolveOutcome` from an engine run.

    The shared back half of :func:`solve` for engine-model solvers — also
    used by :meth:`repro.service.session.SchedulerSession.finalize`, so a
    finalized session reports the exact objective breakdown the batch facade
    would.
    """
    summary = summarize(result)
    objective_value = {
        "total-flow-time": summary.total_flow_time,
        "weighted-flow-time+energy": summary.flow_plus_energy,
        "energy": summary.total_energy,
    }[spec.objective]
    extras: dict[str, Any] = dict(result.extras)
    if policy is not None and hasattr(policy, "diagnostics"):
        extras.update(policy.diagnostics())
    return SolveOutcome(
        algorithm=spec.algorithm_id,
        label=result.algorithm,
        model=spec.model,
        objective=spec.objective,
        objective_value=objective_value,
        breakdown={
            "flow_time": summary.total_flow_time,
            "weighted_flow_time": summary.total_weighted_flow_time,
            "energy": summary.total_energy,
            "flow_plus_energy": summary.flow_plus_energy,
        },
        rejected_count=summary.rejected_count,
        rejected_fraction=summary.rejected_fraction,
        rejected_weight_fraction=summary.rejected_weight_fraction,
        params=validated,
        result=result,
        summary=summary,
        policy=policy,
        extras=extras,
    )
