"""E17 — adaptive meta-scheduling: regret under drifting workload regimes.

E14 sweeps every streaming solver over *stationary* scenario shapes; E17 asks
the question the adaptive subsystem (:mod:`repro.adaptive`) exists to answer:
when the workload regime **drifts mid-trace** — a diurnal cycle interrupted by
a flash crowd, a gentle ramp handing over to a near-critical heavy tail — can
the algorithm-switching meta-scheduler track the regime and stay close to the
**best fixed policy in hindsight**, without knowing the drift schedule?

Each drifting scenario is solved by every *fixed* candidate policy and by the
``meta`` solver under each configured switch policy (threshold and
bandit-style by default).  Per cell the experiment reports:

* the objective value and its **ratio vs the best fixed** candidate on that
  scenario (the hindsight benchmark: 1.0 = matched the best fixed policy);
* the **regret** — ``objective - best_fixed_objective`` — the standard
  drifting-bandit yardstick, in objective units;
* the meta-scheduler's **switch count** and switch trace (from
  ``SolveOutcome.extras``), plus the deterministic event count.

The headline claim the nightly grid re-checks: on every drifting scenario the
meta-scheduler's objective is strictly below the *worst* fixed candidate's,
and on at least one scenario it beats *every* fixed candidate — adaptivity
pays exactly when no single policy is right for the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptive.solver import DEFAULT_CANDIDATES
from repro.analysis.reporting import ExperimentTable
from repro.experiments.exp_robustness import _run_cell
from repro.experiments.registry import ExperimentResult
from repro.solvers import get_solver

#: The drifting-regime scenarios E17 evaluates by default.
DRIFT_SCENARIOS = ("drift-diurnal-flash", "drift-ramp-heavytail")


@dataclass
class AdaptiveConfig:
    """Sweep parameters of experiment E17."""

    scenarios: tuple[str, ...] = DRIFT_SCENARIOS
    #: Fixed candidate policies; also the meta-scheduler's candidate set.
    candidates: tuple[str, ...] = DEFAULT_CANDIDATES
    #: Switch-policy families to evaluate the meta solver under.
    meta_policies: tuple[str, ...] = ("threshold", "bandit")
    window: int = 64
    cooldown: int = 32
    #: Rejection budget shared by every policy that takes one (fixed runs and
    #: the meta solver's sub-policies alike), so the hindsight comparison is
    #: budget-fair.
    epsilon: float = 0.25
    num_jobs: int = 300
    num_machines: int = 4
    alpha: float = 3.0
    seed: int = 2018
    #: ``session`` streams chunks through a SchedulerSession; ``batch``
    #: materialises an Instance and calls repro.solve() (byte-identical).
    ingest: str = "session"
    validate: bool = True


COLUMNS = (
    "scenario",
    "policy",
    "kind",
    "objective_value",
    "ratio_vs_best_fixed",
    "regret",
    "switches",
    "rejected_fraction",
    "events",
)


def run(config: AdaptiveConfig) -> ExperimentResult:
    """Run experiment E17 and return the drifting-regret table."""
    runs: list[tuple[str, str, str, dict]] = []
    for candidate in config.candidates:
        spec = get_solver(candidate)
        params = (
            {"epsilon": config.epsilon} if "epsilon" in spec.param_specs() else {}
        )
        runs.append((f"fixed:{candidate}", "fixed", candidate, params))
    for family in config.meta_policies:
        runs.append(
            (
                f"meta:{family}",
                "meta",
                "meta",
                {
                    "candidates": config.candidates,
                    "window": config.window,
                    "policy": family,
                    "cooldown": config.cooldown,
                    "epsilon": config.epsilon,
                },
            )
        )

    cells: list[dict] = []
    for scenario_name in config.scenarios:
        for policy_label, kind, algorithm, params in runs:
            outcome = _run_cell(config, scenario_name, algorithm, params)
            events = outcome.result.extras.get("events", 0) if outcome.result else 0
            cells.append(
                {
                    "scenario": scenario_name,
                    "policy": policy_label,
                    "kind": kind,
                    "objective_value": outcome.objective_value,
                    "rejected_fraction": outcome.rejected_fraction,
                    "switches": outcome.extras.get("meta_switches", 0),
                    "switch_trace": outcome.extras.get("meta_switch_trace", ""),
                    "events": events,
                }
            )

    # Hindsight benchmark: the best (and worst) fixed candidate per scenario.
    best_fixed: dict[str, float] = {}
    worst_fixed: dict[str, float] = {}
    for cell in cells:
        if cell["kind"] != "fixed":
            continue
        name, value = cell["scenario"], cell["objective_value"]
        if name not in best_fixed or value < best_fixed[name]:
            best_fixed[name] = value
        if name not in worst_fixed or value > worst_fixed[name]:
            worst_fixed[name] = value
    for cell in cells:
        floor = best_fixed.get(cell["scenario"])
        cell["ratio_vs_best_fixed"] = (
            cell["objective_value"] / floor if floor else float("nan")
        )
        cell["regret"] = (
            cell["objective_value"] - floor if floor is not None else float("nan")
        )

    # Per-scenario adaptivity summary for the raw artifact (and the nightly
    # headline check): did each meta policy stay under the worst fixed
    # candidate, and did it beat every fixed candidate outright?
    summary: list[dict] = []
    for scenario_name in config.scenarios:
        for cell in cells:
            if cell["scenario"] != scenario_name or cell["kind"] != "meta":
                continue
            value = cell["objective_value"]
            summary.append(
                {
                    "scenario": scenario_name,
                    "policy": cell["policy"],
                    "objective_value": value,
                    "best_fixed": best_fixed.get(scenario_name),
                    "worst_fixed": worst_fixed.get(scenario_name),
                    "beats_worst_fixed": value < worst_fixed.get(scenario_name, value),
                    "beats_all_fixed": value < best_fixed.get(scenario_name, value),
                    "switches": cell["switches"],
                }
            )

    table = ExperimentTable(
        title="E17: adaptive meta-scheduling regret under drifting regimes",
        columns=COLUMNS,
    )
    raw: dict = {
        "scenarios": list(config.scenarios),
        "candidates": list(config.candidates),
        "meta_policies": list(config.meta_policies),
        "ingest": config.ingest,
        "rows": [],
        "summary": summary,
    }
    for cell in cells:
        table.add_row({c: cell[c] for c in COLUMNS})
        raw["rows"].append(cell)

    table.add_note(
        "ratio_vs_best_fixed and regret compare against the best *fixed* "
        "candidate in hindsight on the same scenario (ratio 1.0 / regret 0 = "
        "matched it; below = adaptivity beat every fixed policy). switches "
        "counts the meta-scheduler's hot algorithm switches."
    )
    return ExperimentResult(
        experiment_id="E17",
        title="adaptive meta-scheduling regret under drifting workload regimes",
        tables=[table],
        raw=raw,
    )
