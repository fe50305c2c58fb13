"""Named workload suites used by the experiments.

A :class:`WorkloadSuite` bundles a set of instances (or instance factories)
under a name, so experiments, examples and EXPERIMENTS.md all refer to the same
parameterisation.  ``standard_suites()`` returns the suites in three scales:

* ``small``  — seconds to run; used by the test suite and CI;
* ``medium`` — the experiments' ``scale="medium"`` sweeps;
* ``large``  — long runs of the E1, E6 and E9 sweeps (``scale="large"``).

Four suites ship per scale: ``flow``, ``weighted``, ``deadline`` and
``scenarios`` — the heavy-traffic scenario catalog of
:mod:`repro.workloads.scenarios` sized to the scale.  Suite names and labels
are validated against duplicates at registration
(:func:`validate_unique_suites`, :meth:`WorkloadSuite.add`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.workloads.adversarial import lemma1_instance, overload_burst_instance
from repro.workloads.generators import (
    DeadlineInstanceGenerator,
    InstanceGenerator,
    WeightedInstanceGenerator,
)
from repro.workloads.scenarios import SCENARIOS


@dataclass
class WorkloadSuite:
    """A named collection of lazily built instances."""

    name: str
    factories: dict[str, Callable[[], Instance]] = field(default_factory=dict)

    def add(self, label: str, factory: Callable[[], Instance]) -> None:
        """Register an instance factory under ``label``."""
        if label in self.factories:
            raise InvalidParameterError(f"duplicate workload label {label!r}")
        self.factories[label] = factory

    def build(self, label: str) -> Instance:
        """Build (or rebuild) the instance registered under ``label``."""
        try:
            return self.factories[label]()
        except KeyError as exc:
            raise KeyError(
                f"unknown workload {label!r}; available: {sorted(self.factories)}"
            ) from exc

    def build_all(self) -> dict[str, Instance]:
        """Build every instance of the suite."""
        return {label: factory() for label, factory in self.factories.items()}

    def labels(self) -> list[str]:
        """Registered labels in insertion order."""
        return list(self.factories)


def validate_unique_suites(suites: Iterable[WorkloadSuite]) -> None:
    """Reject duplicate suite names at registration time.

    Suites are addressed by name everywhere (benchmarks, docs, campaign
    reports); two suites sharing a name would silently shadow each other in
    any keyed collection, so registration fails loudly instead.
    """
    seen: set[str] = set()
    for suite in suites:
        if suite.name in seen:
            raise InvalidParameterError(f"duplicate workload suite name {suite.name!r}")
        seen.add(suite.name)


_SCALES = {
    "small": {"flow_jobs": 150, "weighted_jobs": 80, "deadline_jobs": 30,
              "scenario_jobs": 120, "machines": 3},
    "medium": {"flow_jobs": 800, "weighted_jobs": 300, "deadline_jobs": 60,
               "scenario_jobs": 600, "machines": 6},
    "large": {"flow_jobs": 5000, "weighted_jobs": 1500, "deadline_jobs": 120,
              "scenario_jobs": 4000, "machines": 16},
}


def standard_suites(scale: str = "small", seed: int = 2018) -> dict[str, WorkloadSuite]:
    """The standard workload suites at the given scale (``small``/``medium``/``large``)."""
    if scale not in _SCALES:
        raise InvalidParameterError(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    params = _SCALES[scale]
    m = params["machines"]

    flow = WorkloadSuite(name=f"flow-{scale}")
    flow.add(
        "poisson-pareto",
        lambda: InstanceGenerator(
            num_machines=m, arrival_process="poisson", size_distribution="pareto", seed=seed
        ).generate(params["flow_jobs"]),
    )
    flow.add(
        "bursty-bimodal",
        lambda: InstanceGenerator(
            num_machines=m,
            arrival_process="bursty",
            size_distribution="bimodal",
            size_params={"short": 1.0, "long": 40.0, "long_fraction": 0.15},
            seed=seed + 1,
        ).generate(params["flow_jobs"]),
    )
    flow.add(
        "batched-uniform",
        lambda: InstanceGenerator(
            num_machines=m,
            arrival_process="batched",
            size_distribution="uniform",
            seed=seed + 2,
        ).generate(params["flow_jobs"]),
    )
    flow.add(
        "restricted-exponential",
        lambda: InstanceGenerator(
            num_machines=m,
            machine_model="restricted",
            size_distribution="exponential",
            seed=seed + 3,
        ).generate(params["flow_jobs"]),
    )
    flow.add("overload-burst", lambda: overload_burst_instance(m, burst_jobs=3))
    flow.add("lemma1-L16", lambda: lemma1_instance(length=16.0, epsilon=0.25))

    weighted = WorkloadSuite(name=f"weighted-{scale}")
    for alpha in (2.0, 2.5, 3.0):
        weighted.add(
            f"poisson-alpha{alpha:g}",
            lambda alpha=alpha: WeightedInstanceGenerator(
                num_machines=m, alpha=alpha, seed=seed + 10
            ).generate(params["weighted_jobs"]),
        )
    weighted.add(
        "bursty-alpha2.5",
        lambda: WeightedInstanceGenerator(
            num_machines=m, alpha=2.5, arrival_process="bursty", seed=seed + 11
        ).generate(params["weighted_jobs"]),
    )

    deadline = WorkloadSuite(name=f"deadline-{scale}")
    for slack in (2.0, 4.0, 8.0):
        deadline.add(
            f"slack{slack:g}",
            lambda slack=slack: DeadlineInstanceGenerator(
                num_machines=max(1, m // 2), slack=slack, alpha=2.0, seed=seed + 20
            ).generate(params["deadline_jobs"]),
        )
    deadline.add(
        "single-machine-alpha3",
        lambda: DeadlineInstanceGenerator(
            num_machines=1, slack=4.0, alpha=3.0, seed=seed + 21
        ).generate(max(10, params["deadline_jobs"] // 2)),
    )

    scenarios = WorkloadSuite(name=f"scenarios-{scale}")
    for scenario in SCENARIOS.values():
        scenarios.add(
            scenario.name,
            lambda scenario=scenario: scenario.instance(
                params["scenario_jobs"], num_machines=m, seed=seed + 30
            ),
        )

    suites = {"flow": flow, "weighted": weighted, "deadline": deadline,
              "scenarios": scenarios}
    validate_unique_suites(suites.values())
    return suites
