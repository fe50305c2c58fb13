"""Exact work pins: what fixed workloads make the schedulers do.

Each row maps (workload, algorithm) to (n_jobs, events, rejected_count) of
one ``repro.solve`` run under each dispatch mode.  Every column is an integer
that follows from the schedule, so a moved pin means the code now computes a
different schedule; the change that moves one says why in CHANGES.md.  Time
is measured by ``perfbench/``, never here.

The table pins no instance or outcome hash on purpose: the float bits of
generated instances follow numpy's SIMD level, and float sums follow the
Python version, while these integer columns stay equal under both.  CI runs
this file a second time with every feature in numpy's ``__cpu_dispatch__``
disabled, so a pin that holds only at one SIMD level cannot land.
"""

from __future__ import annotations

import pytest

import repro
from repro.simulation.engine import DISPATCH_MODES
from repro.workloads.adversarial import overload_burst_instance
from repro.workloads.generators import InstanceGenerator, WeightedInstanceGenerator
from repro.workloads.scenarios import get_scenario
from repro.workloads.traces import chunks_to_instance


def _scenario(name: str):
    chunks = get_scenario(name).job_chunks(400, num_machines=8, seed=2018)
    return chunks_to_instance(chunks, machines=8)


def _chunked(generator, num_jobs: int):
    return chunks_to_instance(generator.iter_job_chunks(num_jobs), machines=generator.machines())


#: Workload name -> a builder of its instance.
WORKLOADS = {
    "overload-burst": lambda: overload_burst_instance(
        num_machines=8, burst_jobs=61, trailing_shorts=50
    ),
    "pareto": lambda: InstanceGenerator(
        num_machines=8, seed=1, size_distribution="pareto"
    ).generate(500),
    "exponential-overload": lambda: _chunked(
        InstanceGenerator(num_machines=8, seed=5, size_distribution="exponential", load=1.2),
        500,
    ),
    "weighted": lambda: _chunked(
        WeightedInstanceGenerator(num_machines=4, seed=9, alpha=2.5), 200
    ),
    "uniform": lambda: InstanceGenerator(
        num_machines=4, seed=11, size_distribution="uniform"
    ).generate(100),
    "pareto-5k": lambda: _chunked(
        InstanceGenerator(num_machines=8, seed=2018, size_distribution="pareto", load=0.9),
        5000,
    ),
    "multi-tenant-mix": lambda: _scenario("multi-tenant-mix"),
    "drift-ramp-heavytail": lambda: _scenario("drift-ramp-heavytail"),
}

#: Parameters of each algorithm in the table (the registry's otherwise).
PARAMS = {
    "rejection-flow": {"epsilon": 0.5},
    "rejection-energy-flow": {"epsilon": 0.5},
    "meta": {"policy": "threshold", "epsilon": 0.25},
}

#: (workload, algorithm) -> (n_jobs, events, rejected_count), the same under
#: every dispatch mode: the scan reference and the indexed fast path compute
#: one schedule.
PINS = {
    ("overload-burst", "rejection-flow"): (538, 902, 427),
    ("pareto", "rejection-flow"): (500, 836, 201),
    ("exponential-overload", "greedy"): (500, 1000, 0),
    ("weighted", "rejection-energy-flow"): (200, 400, 49),
    ("uniform", "rejection-flow"): (100, 169, 38),
    ("pareto-5k", "fcfs"): (5000, 10000, 0),
    ("multi-tenant-mix", "rejection-flow"): (400, 668, 157),
    ("drift-ramp-heavytail", "meta"): (400, 710, 90),
}


@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
@pytest.mark.parametrize("key", list(PINS), ids="-".join)
def test_work_is_pinned(key, dispatch):
    workload, algorithm = key
    outcome = repro.solve(
        WORKLOADS[workload](), algorithm, dispatch=dispatch, **PARAMS.get(algorithm, {})
    )
    work = (len(outcome.result.records), outcome.result.extras["events"], outcome.rejected_count)
    assert work == PINS[key]


def test_every_workload_is_pinned():
    # A new workload adds its row here.
    assert {workload for workload, _ in PINS} == set(WORKLOADS)
