"""E4 — Theorem 3: energy minimisation with deadlines vs ``alpha^alpha``.

Sweeps the power exponent ``alpha`` and the deadline slack over Section 4
workloads and reports, for the configuration-LP greedy:

* the measured energy next to the certified lower bound (per-job convexity,
  plus YDS on single-machine instances) and the ``alpha^alpha`` guarantee;
* the AVR online reference on the same instances;
* the discretised offline optimum (brute force) on tiny instances, to show
  how loose the certified bound is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import ExperimentTable
from repro.baselines.avr import average_rate_energy
from repro.baselines.offline import brute_force_optimal_energy
from repro.core.bounds import energy_min_competitive_ratio
from repro.core.energy_min import ConfigLPEnergyScheduler
from repro.experiments.registry import ExperimentResult
from repro.lowerbounds.energy_bounds import best_energy_lower_bound
from repro.workloads.generators import DeadlineInstanceGenerator


@dataclass
class EnergyMinExperimentConfig:
    """Sweep parameters of experiment E4."""

    alphas: tuple[float, ...] = (1.5, 2.0, 3.0)
    slacks: tuple[float, ...] = (2.0, 4.0)
    num_jobs: int = 25
    num_machines: int = 2
    slot_length: float = 1.0
    seed: int = 2018
    include_brute_force: bool = False
    brute_force_jobs: int = 5


COLUMNS = (
    "alpha",
    "slack",
    "algorithm",
    "energy",
    "lower_bound",
    "ratio_vs_lb",
    "paper_bound",
)


def run(config: EnergyMinExperimentConfig) -> ExperimentResult:
    """Run experiment E4 and return its result table."""
    table = ExperimentTable(
        title="E4: non-preemptive energy minimisation (Theorem 3)", columns=COLUMNS
    )
    raw: dict = {"rows": []}

    for alpha in config.alphas:
        for slack in config.slacks:
            generator = DeadlineInstanceGenerator(
                num_machines=config.num_machines,
                slack=slack,
                alpha=alpha,
                seed=config.seed,
            )
            instance = generator.generate(config.num_jobs)
            lower_bound = best_energy_lower_bound(instance)
            paper_bound = energy_min_competitive_ratio(alpha)

            scheduler = ConfigLPEnergyScheduler(slot_length=config.slot_length)
            schedule = scheduler.schedule(instance)
            rows = [
                ("config-lp-greedy", schedule.total_energy),
                ("avr(reference)", average_rate_energy(instance)),
            ]

            if config.include_brute_force:
                tiny = instance.prefix(config.brute_force_jobs)
                tiny_lb = best_energy_lower_bound(tiny)
                tiny_greedy = scheduler.schedule(tiny).total_energy
                tiny_opt = brute_force_optimal_energy(
                    tiny,
                    slot_length=config.slot_length,
                    speeds_per_job=scheduler.speeds_per_job,
                    max_jobs=config.brute_force_jobs,
                )
                raw.setdefault("brute_force", []).append(
                    {
                        "alpha": alpha,
                        "slack": slack,
                        "greedy": tiny_greedy,
                        "optimum": tiny_opt,
                        "lower_bound": tiny_lb,
                        "ratio_vs_opt": tiny_greedy / tiny_opt if tiny_opt > 0 else float("inf"),
                    }
                )

            for name, energy in rows:
                row = {
                    "alpha": alpha,
                    "slack": slack,
                    "algorithm": name,
                    "energy": energy,
                    "lower_bound": lower_bound,
                    "ratio_vs_lb": energy / lower_bound if lower_bound > 0 else float("inf"),
                    "paper_bound": paper_bound,
                }
                table.add_row(row)
                raw["rows"].append(row)

    table.add_note(
        "AVR is preemptive and may process jobs in parallel, so it is an optimistic "
        "reference, not a feasible competitor in the paper's model."
    )
    return ExperimentResult(
        experiment_id="E4",
        title="Theorem 3: energy minimisation with deadlines",
        tables=[table],
        raw=raw,
    )
