"""repro — Online Non-preemptive Scheduling on Unrelated Machines with Rejections.

A complete, executable reproduction of the SPAA 2018 paper by Lucarelli,
Moseley, Thang, Srivastav and Trystram (arXiv:1802.10309).  The package
contains:

* :mod:`repro.simulation` — the event-driven, non-preemptive scheduling
  simulator (unrelated machines, optional speed scaling) the algorithms run on;
* :mod:`repro.core` — the paper's three algorithms (Theorems 1, 2 and 3),
  their rejection rules and the dual-fitting certificates;
* :mod:`repro.baselines` — reference schedulers the experiments compare
  against (greedy without rejection, immediate rejection, speed augmentation,
  SRPT, HDF, AVR, YDS, offline heuristics);
* :mod:`repro.solvers` — the string-keyed solver registry behind
  :func:`repro.solve`, the algorithm-agnostic entry point to every scheduler;
* :mod:`repro.service` (loaded on first use) — the streaming surface:
  :func:`repro.open_session` returns a
  :class:`~repro.service.session.SchedulerSession` that ingests jobs
  incrementally, emits a typed decision-event stream, snapshots to
  canonical JSON for ``restore`` and finalizes into the same
  :class:`~repro.solvers.outcome.SolveOutcome` as the batch facade;
* :mod:`repro.lowerbounds` — certified lower bounds on the offline optimum;
* :mod:`repro.workloads` — synthetic workload generators, the adversarial
  constructions of Lemma 1 and Lemma 2, trace ingestion/export with
  deterministic transforms and the named heavy-traffic scenario catalog;
* :mod:`repro.adaptive` — the algorithm-switching meta-scheduler: windowed
  load telemetry over the decision-event stream, pluggable switch policies
  and the hot-switchable ``meta`` solver/session (experiment E17);
* :mod:`repro.analysis` — competitive-ratio estimation and report tables;
* :mod:`repro.experiments` — the experiment suite (E1-E17) that plays the
  role of the paper's tables and figures.

Quickstart
----------

>>> import repro
>>> instance = repro.quick_instance(num_jobs=50, num_machines=4, seed=0)
>>> outcome = repro.solve(instance, algorithm="rejection-flow", epsilon=0.5)
>>> outcome.objective_value > 0 and outcome.rejected_fraction <= 2 * 0.5
True

``repro.list_algorithms()`` (or ``repro solve --list-algorithms`` on the
command line) enumerates every registered scheduler with its execution model,
objective and parameter schema.

``import repro`` loads only the solve path (:mod:`repro.simulation`,
:mod:`repro.core` and :mod:`repro.solvers`); every other subpackage loads on
first use, and numpy loads where an array is first built: a trace chunk, a
generated instance or a discrete timeline.  A trace solve builds none.
"""

from repro.simulation import (
    DecisionEvent,
    Job,
    Machine,
    Instance,
    FlowTimeEngine,
    SpeedScalingEngine,
    SimulationResult,
    run_policy,
    run_speed_policy,
    summarize,
    validate_result,
)
from repro.core import (
    RejectionFlowTimeScheduler,
    RejectionEnergyFlowScheduler,
    ConfigLPEnergyScheduler,
    FlowTimeDualAccountant,
    EnergyFlowDualAccountant,
)
from repro.solvers import (
    SolveOutcome,
    available_algorithms,
    list_algorithms,
    make_policy,
    solve,
)

__version__ = "1.1.0"

#: Public names whose subpackage loads on first access (PEP 562), so that
#: ``import repro`` stays off the service import graph.
_LAZY = {
    "SchedulerSession": "repro.service",
    "open_session": "repro.service",
    "streaming_algorithms": "repro.service",
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


def quick_instance(num_jobs: int = 50, num_machines: int = 4, seed: int | None = 0, **kwargs):
    """Generate a small random unrelated-machine instance (convenience helper).

    Thin wrapper around
    :class:`repro.workloads.generators.InstanceGenerator` with sensible
    defaults; see that class for the full set of knobs.
    """
    from repro.workloads.generators import InstanceGenerator

    generator = InstanceGenerator(num_machines=num_machines, seed=seed, **kwargs)
    return generator.generate(num_jobs)


__all__ = [
    "Job",
    "Machine",
    "Instance",
    "FlowTimeEngine",
    "SpeedScalingEngine",
    "SimulationResult",
    "SolveOutcome",
    "summarize",
    "validate_result",
    "RejectionFlowTimeScheduler",
    "RejectionEnergyFlowScheduler",
    "ConfigLPEnergyScheduler",
    "FlowTimeDualAccountant",
    "EnergyFlowDualAccountant",
    "available_algorithms",
    "list_algorithms",
    "make_policy",
    "quick_instance",
    "run_policy",
    "run_speed_policy",
    "solve",
    "DecisionEvent",
    "SchedulerSession",
    "open_session",
    "streaming_algorithms",
    "__version__",
]
