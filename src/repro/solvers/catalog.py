"""Built-in solver registrations.

Importing this module registers every scheduler the package ships — the
paper's three core algorithms, the online baselines and the
preemptive/offline references — in the solver registry.  The module is
imported lazily by :mod:`repro.solvers.registry` the first time any lookup
happens, so ``import repro`` stays cheap.

Algorithm ids are stable, kebab-case strings; changing one is an API break.
"""

from __future__ import annotations

from repro.baselines.avr import average_rate_schedule
from repro.baselines.fcfs import FCFSScheduler
from repro.baselines.greedy import GreedyDispatchScheduler
from repro.baselines.hdf import HighestDensityFirstScheduler, NoRejectionEnergyFlowScheduler
from repro.baselines.immediate_rejection import ImmediateRejectionScheduler
from repro.baselines.offline import (
    brute_force_optimal_energy,
    brute_force_optimal_flow_time,
    offline_list_schedule,
)
from repro.baselines.speed_augmentation import run_with_speed_augmentation
from repro.baselines.srpt import srpt_unrelated_lower_bound
from repro.baselines.yds import yds_schedule
from repro.adaptive.solver import DEFAULT_CANDIDATES, SWITCH_POLICIES, MetaSchedulingPolicy
from repro.core.energy_min import ConfigLPEnergyScheduler
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.solvers.outcome import ReferenceRun
from repro.solvers.registry import ParamSpec, SolverSpec, register_solver

# The paper assumes epsilon in (0, 1); values >= 1 keep the permissive
# interpretation of core.rejection.check_epsilon (the rules fire more often),
# so the schema only enforces positivity — matching direct construction.
_EPSILON = ParamSpec(
    "epsilon",
    float,
    default=0.5,
    description="rejection parameter, usually in (0, 1)",
    minimum=0.0,
    minimum_exclusive=True,
)


# -- core algorithms (the paper's three theorems) --------------------------------------

register_solver(
    SolverSpec(
        algorithm_id="rejection-flow",
        model="fixed-speed",
        objective="total-flow-time",
        description="Theorem 1: flow-time minimisation with Rule 1 + Rule 2 rejections",
        supports_rejection=True,
        supports_streaming=True,
        params=(
            _EPSILON,
            ParamSpec("enable_rule1", bool, default=True,
                      description="reject the running job after ceil(1/eps) dispatches"),
            ParamSpec("enable_rule2", bool, default=True,
                      description="evict the largest pending job every ceil(1+1/eps) dispatches"),
        ),
        factory=RejectionFlowTimeScheduler,
        tags=("core",),
    )
)

register_solver(
    SolverSpec(
        algorithm_id="rejection-energy-flow",
        model="speed-scaling",
        objective="weighted-flow-time+energy",
        description="Theorem 2: weighted flow time plus energy with the weighted rejection rule",
        supports_rejection=True,
        supports_streaming=True,
        params=(
            _EPSILON,
            ParamSpec("gamma", float, default=None, allow_none=True,
                      description="speed-scaling constant (None = the paper's value)",
                      minimum=0.0, minimum_exclusive=True),
            ParamSpec("enable_rejection", bool, default=True,
                      description="ablation switch for the weighted rejection rule"),
        ),
        factory=RejectionEnergyFlowScheduler,
        tags=("core",),
    )
)


def _run_config_lp(instance, slot_length, speeds_per_job):
    scheduler = ConfigLPEnergyScheduler(slot_length=slot_length, speeds_per_job=speeds_per_job)
    schedule = scheduler.schedule(instance)
    # Left to right: Python 3.12's compensated ``sum`` gives other bits.
    marginal_cost_sum = 0
    for cost in schedule.marginal_costs.values():
        marginal_cost_sum += cost
    return ReferenceRun(
        label=schedule.algorithm,
        objective_value=schedule.total_energy,
        breakdown={"energy": schedule.total_energy},
        extras={**schedule.summary(), "marginal_cost_sum": marginal_cost_sum},
    )


register_solver(
    SolverSpec(
        algorithm_id="config-lp-energy",
        model="reference",
        objective="energy",
        description="Theorem 3: config-LP primal-dual greedy for energy minimisation "
                    "with deadlines (discrete timeline, not the online engines)",
        params=(
            ParamSpec("slot_length", float, default=1.0, minimum=0.0, minimum_exclusive=True,
                      description="length of a discrete time slot"),
            ParamSpec("speeds_per_job", int, default=16, minimum=1,
                      description="candidate speeds per (job, machine) pair"),
        ),
        runner=_run_config_lp,
        tags=("core",),
    )
)


# -- online baselines (same engines as the core algorithms) ----------------------------

register_solver(
    SolverSpec(
        algorithm_id="greedy",
        model="fixed-speed",
        objective="total-flow-time",
        description="greedy marginal-increase dispatching, never rejects",
        supports_streaming=True,
        params=(
            ParamSpec("local_order", str, default="spt", choices=("spt", "fcfs"),
                      description="per-machine execution order"),
        ),
        factory=GreedyDispatchScheduler,
        tags=("baseline",),
    )
)

register_solver(
    SolverSpec(
        algorithm_id="fcfs",
        model="fixed-speed",
        objective="total-flow-time",
        description="least-loaded dispatching, first-come-first-served local order",
        supports_streaming=True,
        factory=FCFSScheduler,
        tags=("baseline",),
    )
)

register_solver(
    SolverSpec(
        algorithm_id="immediate-rejection",
        model="fixed-speed",
        objective="total-flow-time",
        description="Lemma 1 policy family: rejection decided at arrival only",
        supports_rejection=True,
        supports_streaming=True,
        params=(
            ParamSpec("epsilon", float, default=0.25, minimum=0.0,
                      description="online rejection budget (fraction of released jobs)"),
            ParamSpec("variant", str, default="largest",
                      choices=("largest", "overload", "never"),
                      description="which arrivals to spend the budget on"),
            ParamSpec("backlog_factor", float, default=4.0, minimum=0.0,
                      description="threshold multiplier of the overload variant"),
        ),
        factory=ImmediateRejectionScheduler,
        tags=("baseline",),
    )
)

# -- adaptive meta-scheduler (portfolio over the streaming solvers above) --------------

register_solver(
    SolverSpec(
        algorithm_id="meta",
        model="fixed-speed",
        objective="total-flow-time",
        description="adaptive meta-scheduler: monitors windowed load telemetry and "
                    "hot-switches between candidate streaming policies",
        supports_rejection=True,
        supports_streaming=True,
        params=(
            ParamSpec("candidates", tuple, default=DEFAULT_CANDIDATES,
                      description="candidate portfolio (registry ids); first is initial"),
            ParamSpec("window", int, default=64, minimum=2,
                      description="telemetry window (samples per sliding statistic)"),
            ParamSpec("policy", str, default="threshold", choices=SWITCH_POLICIES,
                      description="switch-policy family ('plan' disables the controller)"),
            ParamSpec("cooldown", int, default=32, minimum=1,
                      description="minimum arrivals between switches (hysteresis)"),
            ParamSpec("margin", float, default=0.1, minimum=0.0,
                      description="bandit relative-improvement margin"),
            ParamSpec("epsilon", float, default=0.25, minimum=0.0,
                      minimum_exclusive=True, maximum=1.0,
                      description="rejection budget forwarded to every candidate "
                                  "that takes an epsilon"),
            ParamSpec("plan", tuple, default=(),
                      description="forced switches as 'INDEX:ALGORITHM' entries"),
        ),
        factory=MetaSchedulingPolicy,
        tags=("adaptive",),
    )
)


register_solver(
    SolverSpec(
        algorithm_id="speed-augmentation",
        model="fixed-speed",
        objective="total-flow-time",
        description="ESA'16 reference: (1+eps_s)-fast machines plus Rule-1 rejection "
                    "(measured on the augmented machines)",
        supports_rejection=True,
        params=(
            ParamSpec("epsilon_speed", float, default=0.2, minimum=0.0,
                      description="speed augmentation factor (machines run 1+eps_s fast)"),
            ParamSpec("epsilon_reject", float, default=0.2, minimum=0.0,
                      minimum_exclusive=True,
                      description="Rule-1 rejection budget"),
        ),
        runner=run_with_speed_augmentation,
        tags=("baseline",),
    )
)

register_solver(
    SolverSpec(
        algorithm_id="energy-flow-no-rejection",
        model="speed-scaling",
        objective="weighted-flow-time+energy",
        description="Theorem 2 scheduler with the rejection rule disabled (ablation)",
        supports_streaming=True,
        params=(
            ParamSpec("epsilon", float, default=0.5, minimum=0.0, minimum_exclusive=True,
                      description="dispatching parameter (no rejections happen)"),
            ParamSpec("gamma", float, default=None, allow_none=True,
                      description="speed-scaling constant (None = the paper's value)",
                      minimum=0.0, minimum_exclusive=True),
        ),
        factory=NoRejectionEnergyFlowScheduler,
        tags=("baseline",),
    )
)


# -- preemptive / offline references (computed outside the engines) --------------------

def _run_hdf(instance):
    hdf = HighestDensityFirstScheduler()
    result = hdf.run(instance)
    return ReferenceRun(
        label=hdf.name,
        objective_value=result.objective,
        breakdown={"weighted_flow_time": result.weighted_flow_time, "energy": result.energy},
        extras={"completions": dict(result.completions)},
    )


register_solver(
    SolverSpec(
        algorithm_id="hdf-preemptive",
        model="reference",
        objective="weighted-flow-time+energy",
        description="preemptive HDF with (total pending weight)^(1/alpha) speed scaling "
                    "(optimistic reference, infeasible in the paper's model)",
        runner=_run_hdf,
        tags=("reference",),
    )
)


def _run_srpt(instance):
    value = srpt_unrelated_lower_bound(instance)
    return ReferenceRun(
        label="srpt-pooled (reference)",
        objective_value=value,
        breakdown={"flow_time": value},
    )


register_solver(
    SolverSpec(
        algorithm_id="srpt-pooled",
        model="reference",
        objective="total-flow-time",
        description="pooled-machine preemptive SRPT flow-time reference",
        runner=_run_srpt,
        tags=("reference",),
    )
)


def _run_avr(instance):
    schedule = average_rate_schedule(instance)
    return ReferenceRun(
        label="avr (reference)",
        objective_value=schedule.energy,
        breakdown={"energy": schedule.energy},
        extras={"assignment": dict(schedule.assignment)},
    )


register_solver(
    SolverSpec(
        algorithm_id="avr",
        model="reference",
        objective="energy",
        description="Average Rate (Yao-Demers-Shenker) preemptive energy reference",
        runner=_run_avr,
        tags=("reference",),
    )
)


def _run_yds(instance):
    schedule = yds_schedule(instance=instance)
    return ReferenceRun(
        label="yds (reference)",
        objective_value=schedule.energy,
        breakdown={"energy": schedule.energy},
        extras={"max_speed": schedule.max_speed, "blocks": len(schedule.blocks)},
    )


register_solver(
    SolverSpec(
        algorithm_id="yds",
        model="reference",
        objective="energy",
        description="optimal preemptive single-machine energy schedule (certified lower bound)",
        runner=_run_yds,
        tags=("reference",),
    )
)


def _run_offline_list(instance, orderings):
    value = offline_list_schedule(instance, orderings=orderings)
    return ReferenceRun(
        label="offline-list (reference)",
        objective_value=value,
        breakdown={"flow_time": value},
    )


register_solver(
    SolverSpec(
        algorithm_id="offline-list",
        model="reference",
        objective="total-flow-time",
        description="clairvoyant list-scheduling heuristic (feasible upper bound on OPT)",
        params=(
            ParamSpec("orderings", tuple, default=("spt", "release"),
                      description="candidate job orderings to try"),
        ),
        runner=_run_offline_list,
        tags=("reference",),
    )
)


def _run_brute_force_flow(instance, max_jobs):
    value = brute_force_optimal_flow_time(instance, max_jobs=max_jobs)
    return ReferenceRun(
        label="brute-force-flow (exact)",
        objective_value=value,
        breakdown={"flow_time": value},
    )


register_solver(
    SolverSpec(
        algorithm_id="brute-force-flow",
        model="reference",
        objective="total-flow-time",
        description="exact minimum total flow time by exhaustive search (tiny instances)",
        params=(
            ParamSpec("max_jobs", int, default=8, minimum=1,
                      description="refuse instances larger than this"),
        ),
        runner=_run_brute_force_flow,
        tags=("reference",),
    )
)


def _run_brute_force_energy(instance, slot_length, speeds_per_job, max_jobs):
    value = brute_force_optimal_energy(
        instance, slot_length=slot_length, speeds_per_job=speeds_per_job, max_jobs=max_jobs
    )
    return ReferenceRun(
        label="brute-force-energy (exact)",
        objective_value=value,
        breakdown={"energy": value},
    )


register_solver(
    SolverSpec(
        algorithm_id="brute-force-energy",
        model="reference",
        objective="energy",
        description="exact discretised minimum energy by exhaustive search (tiny instances)",
        params=(
            ParamSpec("slot_length", float, default=1.0, minimum=0.0, minimum_exclusive=True),
            ParamSpec("speeds_per_job", int, default=8, minimum=1),
            ParamSpec("max_jobs", int, default=6, minimum=1),
        ),
        runner=_run_brute_force_energy,
        tags=("reference",),
    )
)
