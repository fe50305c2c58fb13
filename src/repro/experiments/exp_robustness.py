"""E14 — robustness frontier: streaming solvers × heavy-traffic scenario catalog.

E10 compares algorithms on one synthetic workload; E14 asks the *robustness*
question the ROADMAP's heavy-traffic north star implies: how does every
streaming-capable solver hold up across the named scenario catalog
(:mod:`repro.workloads.scenarios`) — diurnal cycles, flash crowds,
heavy-tailed Pareto service times, multi-tenant mixes, load ramps?

Each (scenario × algorithm) cell ingests the scenario's chunk stream through
a :class:`~repro.service.session.SchedulerSession` (``ingest="session"``, the
default — the trace-driven path ``repro serve`` uses; ``ingest="batch"``
materialises an instance and calls :func:`repro.solve`, which is
byte-identical) and reports:

* the objective value and its **ratio vs the best** solver of the same
  objective on that scenario (speed-scaling solvers optimise flow+energy, so
  ratios are grouped per objective to stay apples-to-apples);
* the rejection rate (count and weight fractions);
* the deterministic simulator event count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import ExperimentTable
from repro.experiments.registry import ExperimentResult
from repro.service.session import open_session, streaming_algorithms
from repro.simulation.validation import validate_result
from repro.solvers import get_solver, solve
from repro.workloads.scenarios import SCENARIOS, get_scenario

#: All catalog scenarios, in reporting order (the default sweep).
ALL_SCENARIOS = tuple(SCENARIOS)


@dataclass
class RobustnessConfig:
    """Sweep parameters of experiment E14."""

    scenarios: tuple[str, ...] = ALL_SCENARIOS
    #: Empty tuple = every solver with ``supports_streaming``.
    algorithms: tuple[str, ...] = ()
    num_jobs: int = 300
    num_machines: int = 4
    epsilon: float = 0.5
    alpha: float = 3.0
    seed: int = 2018
    #: ``session`` streams chunks through a SchedulerSession; ``batch``
    #: materialises an Instance and calls repro.solve() (byte-identical).
    ingest: str = "session"
    validate: bool = True


COLUMNS = (
    "scenario",
    "algorithm",
    "model",
    "objective",
    "objective_value",
    "ratio_vs_best",
    "rejected_fraction",
    "rejected_weight_fraction",
    "events",
)


def _run_cell(config, scenario_name: str, algorithm: str, params: dict):
    """One (scenario × algorithm) cell -> SolveOutcome.

    ``config`` is any sweep config with ``num_jobs``, ``num_machines``,
    ``alpha``, ``seed``, ``ingest`` and ``validate`` (E14's and E17's).
    """
    scenario = get_scenario(scenario_name)
    label = f"{scenario_name}(m={config.num_machines},n={config.num_jobs})"
    if config.ingest == "session":
        session = open_session(
            algorithm,
            config.num_machines,
            alpha=config.alpha,
            name=label,
            **params,
        )
        # Ingest-then-finalize (no mid-stream polls): the pattern the session
        # guarantees byte-identical to the batch facade.
        for chunk in scenario.job_chunks(
            config.num_jobs, config.num_machines, seed=config.seed
        ):
            session.submit_many(chunk)
        outcome = session.finalize()
    elif config.ingest == "batch":
        instance = scenario.instance(
            config.num_jobs, config.num_machines, seed=config.seed,
            alpha=config.alpha, name=label,
        )
        outcome = solve(instance, algorithm, **params)
    else:
        raise ValueError(f"unknown ingest mode {config.ingest!r} (session/batch)")
    if config.validate and outcome.result is not None:
        validate_result(outcome.result)
    return outcome


def run(config: RobustnessConfig) -> ExperimentResult:
    """Run experiment E14 and return the robustness-frontier table."""
    algorithms = tuple(config.algorithms) or tuple(streaming_algorithms())
    cells: list[dict] = []
    for scenario_name in config.scenarios:
        for algorithm in algorithms:
            spec = get_solver(algorithm)
            params = {"epsilon": config.epsilon} if "epsilon" in spec.param_specs() else {}
            outcome = _run_cell(config, scenario_name, algorithm, params)
            events = outcome.result.extras.get("events", 0) if outcome.result else 0
            cells.append(
                {
                    "scenario": scenario_name,
                    "algorithm": algorithm,
                    "model": outcome.model,
                    "objective": outcome.objective,
                    "objective_value": outcome.objective_value,
                    "rejected_fraction": outcome.rejected_fraction,
                    "rejected_weight_fraction": outcome.rejected_weight_fraction,
                    "events": events,
                }
            )

    # Ratio vs the best solver of the same objective on the same scenario.
    best: dict[tuple[str, str], float] = {}
    for cell in cells:
        key = (cell["scenario"], cell["objective"])
        value = cell["objective_value"]
        if value > 0 and (key not in best or value < best[key]):
            best[key] = value
    for cell in cells:
        floor = best.get((cell["scenario"], cell["objective"]))
        cell["ratio_vs_best"] = (
            cell["objective_value"] / floor if floor else float("nan")
        )

    table = ExperimentTable(
        title="E14: robustness frontier (streaming solvers x scenario catalog)",
        columns=COLUMNS,
    )
    raw: dict = {
        "scenarios": list(config.scenarios),
        "algorithms": list(algorithms),
        "ingest": config.ingest,
        "rows": [],
    }
    for cell in cells:
        table.add_row({c: cell[c] for c in COLUMNS})
        raw["rows"].append(cell)

    table.add_note(
        "ratio_vs_best compares solvers sharing an objective on the same scenario "
        "(1.0 = best); events is the deterministic simulator event count."
    )
    return ExperimentResult(
        experiment_id="E14",
        title="robustness frontier across the heavy-traffic scenario catalog",
        tables=[table],
        raw=raw,
    )
