"""Experiment registry: ids, descriptions and uniform run entry points.

Every experiment module exposes a ``*Config`` dataclass plus ``run(config)``.
The registry maps experiment ids onto those modules and offers two layers
of entry point:

* :func:`run_experiment` — build a config from keyword overrides and run it;
  this is what a campaign task runs;
* :func:`make_config` / :func:`run_config` — the underlying pieces, for
  callers that want to inspect or mutate the config before running.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.reporting import ExperimentTable, render_report
from repro.exceptions import InvalidParameterError
from repro.utils.serialization import tuplify


@dataclass
class ExperimentResult:
    """Uniform result bundle returned by every experiment."""

    experiment_id: str
    title: str
    tables: list[ExperimentTable] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def render(self) -> str:
        """Render all tables of the experiment as one report string."""
        return render_report(self.tables, header=f"# {self.experiment_id}: {self.title}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry tying an experiment id to its module and config class."""

    experiment_id: str
    module_path: str
    config_name: str
    description: str

    def load(self) -> tuple[type, Callable]:
        """Import the experiment module and return ``(config_cls, run)``."""
        module = importlib.import_module(self.module_path)
        return getattr(module, self.config_name), getattr(module, "run")

    def config_fields(self) -> dict[str, dataclasses.Field]:
        """The config dataclass fields, keyed by name."""
        config_cls, _ = self.load()
        return {f.name: f for f in dataclasses.fields(config_cls)}

    def accepts_seed(self) -> bool:
        """Whether the experiment's config has a ``seed`` knob."""
        return "seed" in self.config_fields()


#: Experiment id -> spec (module path, config class name, one-line description).
EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "E1",
            "repro.experiments.exp_flow_time",
            "FlowTimeExperimentConfig",
            "Theorem 1: competitive ratio and rejection budget of the flow-time algorithm",
        ),
        ExperimentSpec(
            "E2",
            "repro.experiments.exp_immediate_rejection",
            "ImmediateRejectionExperimentConfig",
            "Lemma 1: immediate rejection degrades like sqrt(Delta); Theorem 1 stays flat",
        ),
        ExperimentSpec(
            "E3",
            "repro.experiments.exp_energy_flow",
            "EnergyFlowExperimentConfig",
            "Theorem 2: weighted flow time plus energy, rejected weight budget",
        ),
        ExperimentSpec(
            "E4",
            "repro.experiments.exp_energy_min",
            "EnergyMinExperimentConfig",
            "Theorem 3: energy minimisation with deadlines vs alpha^alpha",
        ),
        ExperimentSpec(
            "E5",
            "repro.experiments.exp_energy_lower_bound",
            "EnergyLowerBoundExperimentConfig",
            "Lemma 2: the adaptive adversary forces Omega((alpha/9)^alpha)",
        ),
        ExperimentSpec(
            "E6",
            "repro.experiments.exp_speed_vs_rejection",
            "SpeedVsRejectionExperimentConfig",
            "Rejection only (Theorem 1) vs speed augmentation + rejection (ESA'16)",
        ),
        ExperimentSpec(
            "E7",
            "repro.experiments.exp_dual_fitting",
            "DualFittingExperimentConfig",
            "Lemma 4 / Lemma 6: empirical dual feasibility and dual objective strength",
        ),
        ExperimentSpec(
            "E9",
            "repro.experiments.exp_ablation",
            "AblationExperimentConfig",
            "Ablation of the two rejection rules of the Theorem 1 algorithm",
        ),
        ExperimentSpec(
            "E10",
            "repro.experiments.exp_solver_compare",
            "SolverCompareConfig",
            "Algorithm sweep through the unified solver registry (repro.solve)",
        ),
        ExperimentSpec(
            "E14",
            "repro.experiments.exp_robustness",
            "RobustnessConfig",
            "Robustness frontier: streaming solvers across the heavy-traffic scenario catalog",
        ),
        ExperimentSpec(
            "E15",
            "repro.experiments.exp_service_capacity",
            "ServiceCapacityConfig",
            "Service capacity: concurrent sessions, byte-identical to batch solve",
        ),
        ExperimentSpec(
            "E17",
            "repro.experiments.exp_adaptive",
            "AdaptiveConfig",
            "Adaptive meta-scheduling regret under drifting workload regimes",
        ),
    )
}


def available_experiments() -> dict[str, str]:
    """Mapping of experiment id to its one-line description."""
    return {exp_id: spec.description for exp_id, spec in EXPERIMENTS.items()}


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up the spec for ``experiment_id`` (case-insensitive)."""
    spec = EXPERIMENTS.get(experiment_id.upper())
    if spec is None:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return spec


def make_config(experiment_id: str, **overrides):
    """Instantiate an experiment's config dataclass from keyword overrides.

    Sweep knobs are tuples in every config; overrides that arrive as lists
    (e.g. after a JSON round trip through the artifact store) are coerced back
    to tuples so configs hash and compare consistently.
    """
    spec = get_spec(experiment_id)
    config_cls, _ = spec.load()
    fields = spec.config_fields()
    unknown = set(overrides) - set(fields)
    if unknown:
        raise InvalidParameterError(
            f"unknown config fields for {spec.experiment_id}: {sorted(unknown)}; "
            f"available: {sorted(fields)}"
        )
    coerced: dict[str, Any] = {}
    for name, value in overrides.items():
        if isinstance(value, list) and isinstance(fields[name].default, tuple):
            value = tuplify(value)
        coerced[name] = value
    return config_cls(**coerced)


def run_config(experiment_id: str, config) -> ExperimentResult:
    """Run an experiment on an already-built config instance."""
    _, run = get_spec(experiment_id).load()
    return run(config)


def run_experiment(experiment_id: str, **config_overrides) -> ExperimentResult:
    """Run an experiment by id with optional config overrides.

    ``config_overrides`` are passed to the experiment's config dataclass, so
    callers can scale sweeps up or down, e.g.
    ``run_experiment("E1", epsilons=(0.25, 0.5), num_jobs=200)``.
    """
    return run_config(experiment_id, make_config(experiment_id, **config_overrides))

