"""E12 — the scalability frontier: 100k-job instances end to end.

E8 documents how the simulator scales at the sizes the paper-reproduction
experiments use; E12 pushes the indexed scheduler state (see
``docs/ARCHITECTURE.md``, *Performance*) to its frontier: instances built by
the chunked numpy generators (``InstanceGenerator.generate_large``) and swept
across n ∈ {1k, 10k, 50k, 100k} for three schedulers of the flow-time model
— the paper's Theorem 1 algorithm, the rejection-free greedy baseline and
FCFS.  The table records wall time, event throughput and the process'
peak-RSS high-water mark, so regressions in either the generators or the
engines show up as a drop in ``events_per_s`` at the large sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.reporting import ExperimentTable
from repro.experiments.registry import ExperimentResult
from repro.simulation.engine import FlowTimeEngine
from repro.solvers import make_policy
from repro.utils.memory import peak_rss_bytes
from repro.workloads.generators import InstanceGenerator


@dataclass
class ScalabilityFrontierConfig:
    """Sweep parameters of experiment E12."""

    job_counts: tuple[int, ...] = (1_000, 10_000, 50_000, 100_000)
    num_machines: int = 8
    algorithms: tuple[str, ...] = ("rejection-flow", "greedy", "fcfs")
    algorithm_params: dict = field(default_factory=lambda: {"rejection-flow": {"epsilon": 0.5}})
    size_distribution: str = "pareto"
    load: float = 0.9
    seed: int = 2018
    #: Dispatch mode forwarded to the engine (``None``: the engine default).
    dispatch: str | None = None
    repeats: int = 1


COLUMNS = (
    "num_jobs",
    "algorithm",
    "build_s",
    "wall_time_s",
    "events",
    "events_per_s",
    "jobs_per_s",
    "peak_rss_mb",
)

#: Process peak-RSS budget for the n=1M frontier point (MiB).  The measured
#: high-water mark on the reference run is ~1.4 GiB (chunked generation plus
#: the job rows and the engine's indexed state); the budget leaves headroom
#: without masking a structural regression such as an accidental per-job
#: object copy, which would blow straight past it.
FRONTIER_1M_PEAK_RSS_BUDGET_MB = 2048


def frontier_1m_config() -> ScalabilityFrontierConfig:
    """E12's frontier point: n=1M through the default (``indexed``) engine path.

    Theorem 1 only — the rejection rules are what keeps the run finite under
    overload, and the point exists to pin the largest instance the engine
    handles end to end within :data:`FRONTIER_1M_PEAK_RSS_BUDGET_MB`.
    """
    return ScalabilityFrontierConfig(
        job_counts=(1_000_000,),
        algorithms=("rejection-flow",),
    )


def run(config: ScalabilityFrontierConfig) -> ExperimentResult:
    """Run experiment E12 and return its result table."""
    table = ExperimentTable(
        title="E12: scalability frontier (chunked generators + indexed dispatch)",
        columns=COLUMNS,
    )
    raw: dict = {"rows": []}

    for num_jobs in config.job_counts:
        generator = InstanceGenerator(
            num_machines=config.num_machines,
            seed=config.seed,
            size_distribution=config.size_distribution,
            load=config.load,
        )
        build_start = time.perf_counter()
        instance = generator.generate_large(num_jobs)
        build_s = time.perf_counter() - build_start
        engine = FlowTimeEngine(instance, dispatch=config.dispatch)
        for algorithm in config.algorithms:
            params = dict(config.algorithm_params.get(algorithm, {}))
            best_time = float("inf")
            events = 0
            for _ in range(max(1, config.repeats)):
                policy = make_policy(algorithm, **params)
                start = time.perf_counter()
                result = engine.run(policy)
                elapsed = time.perf_counter() - start
                best_time = min(best_time, elapsed)
                events = result.extras.get("events", 0)
            row = {
                "num_jobs": num_jobs,
                "algorithm": algorithm,
                "build_s": build_s,
                "wall_time_s": best_time,
                "events": events,
                "events_per_s": events / best_time if best_time > 0 else float("inf"),
                "jobs_per_s": num_jobs / best_time if best_time > 0 else float("inf"),
                # Process-wide high-water mark: monotone across rows, so only
                # increases between rows are attributable to the row itself.
                "peak_rss_mb": peak_rss_bytes() / 2**20,
            }
            table.add_row(row)
            raw["rows"].append(row)

    return ExperimentResult(
        experiment_id="E12",
        title="Scalability frontier",
        tables=[table],
        raw=raw,
    )
