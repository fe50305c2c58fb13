"""String-keyed solver registry with capability metadata.

Every scheduler shipped by the package — the paper's core algorithms, the
online baselines and the preemptive/offline references — registers here under
a stable algorithm id together with:

* the execution ``model`` it runs under (``fixed-speed`` machines on the
  :class:`~repro.simulation.engine.FlowTimeEngine`, ``speed-scaling`` on the
  :class:`~repro.simulation.speed_engine.SpeedScalingEngine`, or
  ``reference`` for solvers computed combinatorially outside the engines);
* the ``objective`` it optimises;
* whether it may reject jobs (``supports_rejection``);
* whether it can run as a streaming :class:`~repro.service.session.SchedulerSession`
  (``supports_streaming``: policy-based engine solvers whose decisions depend
  only on released jobs — reference solvers and instance-preprocessing
  runners cannot stream);
* a declarative parameter schema (:class:`ParamSpec`) used by
  :func:`repro.solve` to validate and default keyword parameters before any
  engine is touched.

The registry is the single construction path for schedulers: experiments,
campaigns and the CLI look algorithms up by id instead of importing classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.exceptions import InvalidParameterError, UnknownAlgorithmError

#: Execution models a solver can declare.
MODELS = ("fixed-speed", "speed-scaling", "reference")

#: Objective keys understood by the facade (see ``repro.solvers.facade``).
OBJECTIVES = ("total-flow-time", "weighted-flow-time+energy", "energy")


@dataclass(frozen=True)
class ParamSpec:
    """Declarative schema of one solver parameter.

    ``type`` is the expected Python type; ``int`` values are accepted (and
    coerced) where ``float`` is expected, and ``bool`` is *not* accepted as an
    ``int``.  ``minimum`` / ``maximum`` are exclusive when the corresponding
    ``*_exclusive`` flag is set (the common case for ``epsilon``-style
    parameters that must lie strictly inside an interval).
    """

    name: str
    type: type = float
    default: Any = None
    description: str = ""
    choices: tuple[Any, ...] | None = None
    minimum: float | None = None
    maximum: float | None = None
    minimum_exclusive: bool = False
    maximum_exclusive: bool = False
    allow_none: bool = False

    def validate(self, value: Any) -> Any:
        """Check ``value`` against the schema and return the coerced value."""
        if value is None:
            if self.allow_none:
                return None
            raise InvalidParameterError(f"parameter {self.name!r} must not be None")
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                raise InvalidParameterError(
                    f"parameter {self.name!r} expects float, got an integer too large for a float"
                ) from None
        if self.type is bool and not isinstance(value, bool):
            raise InvalidParameterError(
                f"parameter {self.name!r} expects a bool, got {value!r}"
            )
        if self.type is int and isinstance(value, bool):
            raise InvalidParameterError(
                f"parameter {self.name!r} expects an int, got {value!r}"
            )
        if self.type is tuple:
            if isinstance(value, list):
                value = tuple(value)
            elif isinstance(value, str):
                # CLI-friendly spelling: --param orderings=spt,release
                value = tuple(part for part in value.split(",") if part)
        if not isinstance(value, self.type):
            raise InvalidParameterError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if self.choices is not None and value not in self.choices:
            raise InvalidParameterError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, got {value!r}"
            )
        if self.minimum is not None:
            if value < self.minimum or (self.minimum_exclusive and value == self.minimum):
                bound = ">" if self.minimum_exclusive else ">="
                raise InvalidParameterError(
                    f"parameter {self.name!r} must be {bound} {self.minimum}, got {value!r}"
                )
        if self.maximum is not None:
            if value > self.maximum or (self.maximum_exclusive and value == self.maximum):
                bound = "<" if self.maximum_exclusive else "<="
                raise InvalidParameterError(
                    f"parameter {self.name!r} must be {bound} {self.maximum}, got {value!r}"
                )
        return value


@dataclass(frozen=True)
class SolverSpec:
    """Registry entry: capability metadata plus a construction recipe.

    Exactly one of ``factory`` / ``runner`` is set:

    * ``factory(**params)`` builds a policy object for the engine implied by
      ``model`` (``fixed-speed`` → :class:`FlowTimePolicy`,
      ``speed-scaling`` → :class:`SpeedScalingPolicy`);
    * ``runner(instance, **params)`` executes the solver itself and returns a
      :class:`~repro.simulation.schedule.SimulationResult` (engine models that
      need to pre-process the instance, e.g. speed augmentation) or a
      :class:`~repro.solvers.outcome.ReferenceRun` (``reference`` model).
    """

    algorithm_id: str
    model: str
    objective: str
    description: str
    supports_rejection: bool = False
    supports_streaming: bool = False
    params: tuple[ParamSpec, ...] = ()
    factory: Callable[..., Any] | None = None
    runner: Callable[..., Any] | None = None
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise InvalidParameterError(
                f"solver {self.algorithm_id!r}: unknown model {self.model!r}; "
                f"expected one of {list(MODELS)}"
            )
        if self.objective not in OBJECTIVES:
            raise InvalidParameterError(
                f"solver {self.algorithm_id!r}: unknown objective {self.objective!r}; "
                f"expected one of {list(OBJECTIVES)}"
            )
        if (self.factory is None) == (self.runner is None):
            raise InvalidParameterError(
                f"solver {self.algorithm_id!r} must define exactly one of factory/runner"
            )
        if self.model == "reference" and self.runner is None:
            raise InvalidParameterError(
                f"reference solver {self.algorithm_id!r} must define a runner"
            )
        if self.supports_streaming and self.factory is None:
            raise InvalidParameterError(
                f"solver {self.algorithm_id!r} declares supports_streaming but has no "
                "policy factory; only policy-based engine solvers can stream"
            )

    def param_specs(self) -> dict[str, ParamSpec]:
        """Parameter schema keyed by name."""
        return {p.name: p for p in self.params}

    def validate_params(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Validate ``overrides`` against the schema and fill in defaults."""
        specs = self.param_specs()
        unknown = set(overrides) - set(specs)
        if unknown:
            raise InvalidParameterError(
                f"unknown parameter(s) for algorithm {self.algorithm_id!r}: "
                f"{sorted(unknown)}; available: {sorted(specs)}"
            )
        validated: dict[str, Any] = {}
        for name, spec in specs.items():
            value = overrides.get(name, spec.default)
            validated[name] = spec.validate(value) if name in overrides else value
        return validated

    def describe_params(self) -> str:
        """One-line ``name=default`` summary of the parameter schema."""
        return ", ".join(f"{p.name}={p.default!r}" for p in self.params) or "-"


_REGISTRY: dict[str, SolverSpec] = {}
_CATALOG_LOADED = False


def register_solver(spec: SolverSpec) -> SolverSpec:
    """Add ``spec`` to the registry (ids are unique)."""
    if spec.algorithm_id in _REGISTRY:
        raise InvalidParameterError(f"algorithm {spec.algorithm_id!r} is already registered")
    _REGISTRY[spec.algorithm_id] = spec
    return spec


def unregister_solver(algorithm_id: str) -> bool:
    """Remove a registration (used by tests for ad-hoc specs).

    Returns ``True`` when a spec was removed, ``False`` when the id was not
    registered — unknown ids are a no-op, not an error, so teardown code can
    call this unconditionally.
    """
    return _REGISTRY.pop(algorithm_id, None) is not None


def _ensure_catalog() -> None:
    """Import the built-in catalog once (registration happens on import).

    The flag is only set after a *successful* import: if the catalog import
    fails, the next lookup retries it and surfaces the real error instead of
    misreporting every algorithm as unknown against an empty registry.
    """
    global _CATALOG_LOADED
    if not _CATALOG_LOADED:
        from repro.solvers import catalog  # noqa: F401  (import registers specs)

        _CATALOG_LOADED = True


def available_algorithms() -> dict[str, SolverSpec]:
    """All registered solvers keyed by algorithm id (built-ins included)."""
    _ensure_catalog()
    return dict(_REGISTRY)


def get_solver(algorithm_id: str) -> SolverSpec:
    """Look up a solver by id; raise :class:`UnknownAlgorithmError` if absent."""
    _ensure_catalog()
    spec = _REGISTRY.get(algorithm_id)
    if spec is None:
        raise UnknownAlgorithmError(
            f"unknown algorithm {algorithm_id!r}; available: {sorted(_REGISTRY)}"
        )
    return spec


def list_algorithms(*, streaming: "bool | None" = None) -> list[dict[str, Any]]:
    """Stable, JSON-able capability rows for every registered solver.

    ``streaming=True`` keeps only algorithms that can run as a
    :class:`~repro.service.session.SchedulerSession` (``repro serve`` and the
    multi-session service); ``streaming=False`` keeps only batch-only ones;
    ``None`` (default) lists everything.
    """
    rows = []
    for algorithm_id in sorted(available_algorithms()):
        spec = _REGISTRY[algorithm_id]
        if streaming is not None and spec.supports_streaming != streaming:
            continue
        rows.append(
            {
                "algorithm": algorithm_id,
                "model": spec.model,
                "objective": spec.objective,
                "supports_rejection": spec.supports_rejection,
                "supports_streaming": spec.supports_streaming,
                "params": spec.describe_params(),
                "description": spec.description,
            }
        )
    return rows
