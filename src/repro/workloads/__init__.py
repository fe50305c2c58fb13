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

The re-exports load on first access (PEP 562): the job-row schema
(:mod:`repro.workloads.rows`), which the service imports, loads neither the
generators nor numpy, and the trace readers load numpy only where they
build a chunk, so :func:`~repro.workloads.traces.trace_instance` runs
without it.
"""

#: Public names and the submodule each loads from.
_LAZY = {
    "InstanceGenerator": "repro.workloads.generators",
    "WeightedInstanceGenerator": "repro.workloads.generators",
    "DeadlineInstanceGenerator": "repro.workloads.generators",
    "lemma1_instance": "repro.workloads.adversarial",
    "overload_burst_instance": "repro.workloads.adversarial",
    "Lemma2Adversary": "repro.workloads.adversarial",
    "WorkloadSuite": "repro.workloads.suites",
    "standard_suites": "repro.workloads.suites",
    "validate_unique_suites": "repro.workloads.suites",
    "TraceStats": "repro.workloads.traces",
    "read_trace_chunks": "repro.workloads.traces",
    "read_trace_jobs": "repro.workloads.traces",
    "trace_instance": "repro.workloads.traces",
    "trace_stats": "repro.workloads.traces",
    "write_trace": "repro.workloads.traces",
    "Scenario": "repro.workloads.scenarios",
    "available_scenarios": "repro.workloads.scenarios",
    "get_scenario": "repro.workloads.scenarios",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = list(_LAZY)
