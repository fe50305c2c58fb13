"""Synthetic workload generators.

The paper has no experimental section, so the workloads here are designed to
exercise the regimes its theory speaks about:

* random online instances with controllable arrival burstiness, processing
  time heavy-tailedness and machine heterogeneity
  (:mod:`repro.workloads.generators`);
* the *adversarial* constructions used in the paper's lower-bound proofs —
  the Lemma 1 two-phase instance against immediate rejection and the Lemma 2
  adaptive adversary against deterministic energy minimisation
  (:mod:`repro.workloads.adversarial`);
* the named parameter sweeps the experiments/benchmarks iterate over
  (:mod:`repro.workloads.suites`);
* trace ingestion/export and deterministic trace transforms
  (:mod:`repro.workloads.traces`) plus the named heavy-traffic scenario
  catalog built on them (:mod:`repro.workloads.scenarios`).
"""

from repro.workloads.arrival_processes import (
    poisson_arrivals,
    bursty_arrivals,
    batched_arrivals,
    deterministic_arrivals,
)
from repro.workloads.processing_times import (
    uniform_sizes,
    exponential_sizes,
    bounded_pareto_sizes,
    bimodal_sizes,
)
from repro.workloads.machine_models import (
    identical_matrix,
    uniform_related_matrix,
    unrelated_matrix,
    restricted_assignment_matrix,
)
from repro.workloads.generators import InstanceGenerator, WeightedInstanceGenerator, DeadlineInstanceGenerator
from repro.workloads.adversarial import (
    lemma1_instance,
    overload_burst_instance,
    Lemma2Adversary,
)
from repro.workloads.suites import WorkloadSuite, standard_suites, validate_unique_suites
from repro.workloads.traces import (
    TraceStats,
    read_trace_chunks,
    read_trace_jobs,
    trace_instance,
    trace_stats,
    write_trace,
)
from repro.workloads.scenarios import (
    Scenario,
    available_scenarios,
    get_scenario,
)

__all__ = [
    "poisson_arrivals",
    "bursty_arrivals",
    "batched_arrivals",
    "deterministic_arrivals",
    "uniform_sizes",
    "exponential_sizes",
    "bounded_pareto_sizes",
    "bimodal_sizes",
    "identical_matrix",
    "uniform_related_matrix",
    "unrelated_matrix",
    "restricted_assignment_matrix",
    "InstanceGenerator",
    "WeightedInstanceGenerator",
    "DeadlineInstanceGenerator",
    "lemma1_instance",
    "overload_burst_instance",
    "Lemma2Adversary",
    "WorkloadSuite",
    "standard_suites",
    "validate_unique_suites",
    "TraceStats",
    "read_trace_chunks",
    "read_trace_jobs",
    "trace_instance",
    "trace_stats",
    "write_trace",
    "Scenario",
    "available_scenarios",
    "get_scenario",
]
