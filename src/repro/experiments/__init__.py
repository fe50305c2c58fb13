"""The experiment suite (E1-E10, E14, E15, E17).

The paper proves guarantees instead of reporting measurements, so these
experiments are the reproduction's counterpart of a systems paper's tables
and figures: E1-E7 and E9 check the paper's theorems and lemmas and the
design choices behind them (docs/EXPERIMENTS.md has the index), E10 sweeps
algorithms through the unified solver registry, E14 sweeps every streaming
solver across the heavy-traffic scenario catalog, E15 drives concurrent
sessions through the service and E17 measures adaptive regret under
drifting regimes.  No experiment records wall-clock, so every result is a
pure function of its config.  Every experiment module exposes

* a ``*Config`` dataclass with the sweep parameters, and
* ``run(config) -> ExperimentResult``,

and the registry in :mod:`repro.experiments.registry` lets callers run them
by id (``run_experiment("E1")``), which is what the campaign grids and the
examples do.
"""

from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentResult,
    ExperimentSpec,
    available_experiments,
    get_spec,
    make_config,
    run_config,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentSpec",
    "available_experiments",
    "get_spec",
    "make_config",
    "run_config",
    "run_experiment",
]
