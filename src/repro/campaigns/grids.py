"""Named campaign grids: (experiment × config variant × seed) task sets.

A grid expands into concrete :class:`~repro.campaigns.tasks.CampaignTask`
instances with deterministic per-task seeds derived from one master seed via
:func:`repro.utils.rng.seeds_for` — so the task set (and therefore every
artifact key) is a pure function of ``(grid name, master seed)``.  Experiments
whose configs have no ``seed`` knob (the deterministic constructions E2 and
E5) contribute exactly one task per variant.

Besides the (experiment × variant × seed) axes, grids can sweep *algorithms*:
:func:`algorithm_axis` expands a list of solver-registry ids into one entry
per algorithm (variant = algorithm id) on top of experiment E10, which runs
each algorithm through ``repro.solve()`` — so campaigns compare schedulers
the same way they compare experiment configurations.

Shipped grids:

* ``smoke``   — E1 only, one seed; used by the test suite;
* ``small``   — every experiment (E1–E7, E9, E10, E14, E15, E17) at
  miniature sweep sizes, two seeds; finishes in well under a minute, the
  acceptance grid for ``repro campaign run``;
* ``medium``  — the experiments' default sweep sizes, three seeds;
* ``solvers`` — the algorithm axis: one task per registered flow-time
  algorithm, two seeds each, aggregated into per-algorithm report rows;
* ``e14``     — the robustness frontier on its own: every catalog scenario ×
  every streaming solver, two seeds (a nightly byte-stability sweep);
* ``e17``     — the adaptive-regret sweep on its own: every drifting scenario ×
  fixed candidates + meta switch policies, two seeds (a nightly byte-stability
  sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.campaigns.tasks import CampaignTask
from repro.exceptions import InvalidParameterError
from repro.experiments.exp_solver_compare import SolverCompareConfig
from repro.experiments.registry import get_spec
from repro.solvers import get_solver
from repro.utils.rng import seeds_for

DEFAULT_MASTER_SEED = 2018


@dataclass(frozen=True)
class GridEntry:
    """One experiment variant inside a grid."""

    experiment_id: str
    variant: str = "default"
    overrides: tuple[tuple[str, Any], ...] = ()
    num_seeds: int = 1

    @classmethod
    def create(
        cls,
        experiment_id: str,
        variant: str = "default",
        overrides: Mapping[str, Any] | None = None,
        num_seeds: int = 1,
    ) -> "GridEntry":
        return cls(
            experiment_id=experiment_id.upper(),
            variant=variant,
            overrides=tuple(sorted((overrides or {}).items())),
            num_seeds=num_seeds,
        )


@dataclass(frozen=True)
class CampaignGrid:
    """A named, fully deterministic set of campaign tasks."""

    name: str
    description: str
    entries: tuple[GridEntry, ...]

    def tasks(self, master_seed: int = DEFAULT_MASTER_SEED) -> list[CampaignTask]:
        """Expand the grid into concrete tasks with derived per-task seeds."""
        tasks: list[CampaignTask] = []
        for entry in self.entries:
            spec = get_spec(entry.experiment_id)
            overrides = dict(entry.overrides)
            if not spec.accepts_seed():
                tasks.append(
                    CampaignTask.create(
                        entry.experiment_id, entry.variant, seed=None, overrides=overrides
                    )
                )
                continue
            labels = [
                f"{entry.experiment_id}/{entry.variant}/{index}"
                for index in range(entry.num_seeds)
            ]
            for label, seed in seeds_for(master_seed, labels).items():
                tasks.append(
                    CampaignTask.create(
                        entry.experiment_id, entry.variant, seed=seed, overrides=overrides
                    )
                )
        return tasks


def _grid(name: str, description: str, entries: list[GridEntry]) -> CampaignGrid:
    return CampaignGrid(name=name, description=description, entries=tuple(entries))


def algorithm_axis(
    algorithms: Sequence[str],
    base_overrides: Mapping[str, Any] | None = None,
    num_seeds: int = 1,
    experiment_id: str = "E10",
) -> list[GridEntry]:
    """Expand solver-registry ids into one grid entry per algorithm.

    Each entry runs ``experiment_id`` (E10 by default) with the single
    algorithm as its sweep, using the algorithm id as the variant name — so
    aggregated campaign reports carry one row group per algorithm and cached
    artifacts are keyed per algorithm.  Ids are validated against the solver
    registry up front, so a typo fails at grid-expansion time rather than
    midway through a run.
    """
    for algorithm in algorithms:
        get_solver(algorithm)
    return [
        GridEntry.create(
            experiment_id,
            variant=algorithm,
            overrides={**(dict(base_overrides or {})), "algorithms": (algorithm,)},
            num_seeds=num_seeds,
        )
        for algorithm in algorithms
    ]


#: Miniature sweep sizes mirroring the test suite's "runs in seconds" configs.
_SMALL_OVERRIDES: dict[str, dict[str, Any]] = {
    "E1": {"epsilons": (0.25, 0.5), "workloads": ("poisson-pareto",)},
    "E2": {"lengths": (4.0, 8.0), "epsilon": 0.25},
    "E3": {"alphas": (2.0,), "epsilons": (0.5,), "num_jobs": 40},
    "E4": {"alphas": (2.0,), "slacks": (3.0,), "num_jobs": 8},
    "E5": {"alphas": (2.0, 3.0)},
    "E6": {"epsilons": (0.5,), "workloads": ("poisson-pareto",)},
    "E7": {"epsilons": (0.5,), "num_jobs": 25, "samples_per_job": 6},
    "E9": {"workloads": ("lemma1-L16",), "epsilon": 0.25},
    "E10": {"algorithms": ("rejection-flow", "greedy"), "num_jobs": 40},
    "E14": {
        "scenarios": ("heavy-tail-pareto", "flash-crowd", "multi-tenant-mix"),
        "algorithms": ("rejection-flow", "greedy", "fcfs"),
        "num_jobs": 60,
    },
    "E15": {
        "session_counts": (1, 3),
        "jobs_per_session": 40,
        "num_machines": 2,
        "scenarios": ("heavy-tail-pareto", "flash-crowd", "multi-tenant-mix"),
    },
    "E17": {
        "scenarios": ("drift-ramp-heavytail",),
        "meta_policies": ("threshold",),
        "num_jobs": 60,
    },
}

#: Sweep-size caps for the ``medium`` grid where the experiment's defaults
#: are sized for a one-off run rather than a 3-seed campaign.
_MEDIUM_OVERRIDES: dict[str, dict[str, Any]] = {
    "E15": {"session_counts": (1, 4, 16), "jobs_per_session": 120},
}

#: Algorithms swept by the ``solvers`` grid: E10's default sweep (flow-time
#: model + references that work on deadline-less instances), kept in one
#: place so the grid never desynchronises from a default E10 run.
_SOLVER_AXIS = SolverCompareConfig().algorithms

GRIDS: dict[str, CampaignGrid] = {
    grid.name: grid
    for grid in (
        _grid(
            "smoke",
            "E1 only at miniature scale, one seed (test grid)",
            [
                GridEntry.create(
                    "E1", overrides=_SMALL_OVERRIDES["E1"], num_seeds=1
                )
            ],
        ),
        _grid(
            "small",
            "all experiments (E1-E7, E9, E10, E14, E15, E17) at miniature scale, two seeds each",
            [
                GridEntry.create(exp_id, overrides=overrides, num_seeds=2)
                for exp_id, overrides in _SMALL_OVERRIDES.items()
            ],
        ),
        _grid(
            "medium",
            "all experiments (E1-E7, E9, E10, E14, E15, E17) at their default sweep sizes, "
            "three seeds each",
            [
                GridEntry.create(
                    exp_id, overrides=_MEDIUM_OVERRIDES.get(exp_id), num_seeds=3
                )
                for exp_id in _SMALL_OVERRIDES
            ],
        ),
        _grid(
            "solvers",
            "algorithm axis: every flow-time solver via repro.solve(), two seeds each",
            algorithm_axis(_SOLVER_AXIS, base_overrides={"num_jobs": 60}, num_seeds=2),
        ),
        _grid(
            "e14",
            "E14 robustness frontier: all scenarios x all streaming solvers, two seeds",
            [GridEntry.create("E14", overrides={"num_jobs": 150}, num_seeds=2)],
        ),
        _grid(
            "e17",
            "E17 adaptive regret: drift scenarios x fixed + meta policies, two seeds",
            [GridEntry.create("E17", overrides={"num_jobs": 150}, num_seeds=2)],
        ),
    )
}


def available_grids() -> dict[str, str]:
    """Mapping of grid name to its one-line description."""
    return {name: grid.description for name, grid in GRIDS.items()}


def get_grid(name: str) -> CampaignGrid:
    """Look up a grid by name."""
    grid = GRIDS.get(name)
    if grid is None:
        raise InvalidParameterError(
            f"unknown grid {name!r}; available: {sorted(GRIDS)}"
        )
    return grid
