"""Tests for the Theorem 3 configuration-LP greedy (Section 4 algorithm)."""

import math
from types import SimpleNamespace

import pytest

from repro.baselines.offline import brute_force_optimal_energy
from repro.core.bounds import energy_min_competitive_ratio
from repro.core.energy_min import ConfigLPEnergyScheduler
from repro.core.smoothness import smoothness_parameters
from repro.exceptions import InfeasibleInstanceError, InvalidParameterError
from repro.lowerbounds.energy_bounds import best_energy_lower_bound
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.solvers import catalog
from repro.workloads.generators import DeadlineInstanceGenerator


def _deadline_instance(jobs, alpha=2.0, machines=1):
    return Instance.build(Machine.fleet(machines, alpha=alpha), jobs)


class TestScheduleConstruction:
    def test_single_job_runs_slow(self):
        # Volume 2 in a window of 8 slots: the cheapest strategy stretches it out.
        jobs = [Job(0, 0.0, (2.0,), deadline=8.0)]
        schedule = ConfigLPEnergyScheduler(slot_length=1.0).schedule(_deadline_instance(jobs))
        strategy = schedule.strategies[0]
        assert strategy.slots == 8
        assert schedule.total_energy == pytest.approx(8 * (2.0 / 8.0) ** 2.0)

    def test_tight_window_forces_speed(self):
        jobs = [Job(0, 0.0, (4.0,), deadline=2.0)]
        schedule = ConfigLPEnergyScheduler(slot_length=1.0).schedule(_deadline_instance(jobs))
        assert schedule.total_energy == pytest.approx(2 * 2.0**2.0)

    def test_jobs_spread_over_machines(self):
        # Two simultaneous identical jobs and two machines: putting them on
        # different machines is strictly cheaper (convexity), so the greedy does.
        jobs = [
            Job(0, 0.0, (4.0, 4.0), deadline=4.0),
            Job(1, 0.0, (4.0, 4.0), deadline=4.0),
        ]
        schedule = ConfigLPEnergyScheduler(slot_length=1.0).schedule(
            _deadline_instance(jobs, machines=2)
        )
        assert schedule.strategies[0].machine != schedule.strategies[1].machine

    def test_schedule_respects_windows(self, deadline_instance):
        schedule = ConfigLPEnergyScheduler().schedule(deadline_instance)
        schedule.validate()  # raises on any violation
        assert schedule.total_energy > 0

    def test_marginal_costs_sum_to_total_energy(self, deadline_instance):
        schedule = ConfigLPEnergyScheduler().schedule(deadline_instance)
        assert sum(schedule.marginal_costs.values()) == pytest.approx(
            schedule.total_energy, rel=1e-9
        )

    def test_completion_and_start_times(self):
        jobs = [Job(0, 2.0, (2.0,), deadline=6.0)]
        schedule = ConfigLPEnergyScheduler(slot_length=1.0).schedule(_deadline_instance(jobs))
        assert schedule.start_time(0) >= 2.0
        assert schedule.completion_time(0) <= 6.0

    def test_missing_deadline_rejected(self):
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        with pytest.raises(InfeasibleInstanceError):
            ConfigLPEnergyScheduler().schedule(instance)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ConfigLPEnergyScheduler(slot_length=0.0)
        with pytest.raises(InvalidParameterError):
            ConfigLPEnergyScheduler(speeds_per_job=0)

    def test_effective_slot_length_refines_tight_windows(self):
        jobs = [Job(0, 0.0, (0.4,), deadline=0.5)]
        scheduler = ConfigLPEnergyScheduler(slot_length=1.0)
        assert scheduler.effective_slot_length(_deadline_instance(jobs)) <= 0.25
        schedule = scheduler.schedule(_deadline_instance(jobs))
        schedule.validate()


class TestOptimalityAndBounds:
    def test_matches_brute_force_on_tiny_instances(self):
        generator = DeadlineInstanceGenerator(num_machines=2, slack=3.0, alpha=2.0, seed=8)
        instance = generator.generate(4)
        scheduler = ConfigLPEnergyScheduler(slot_length=1.0, speeds_per_job=8)
        greedy = scheduler.schedule(instance).total_energy
        optimum = brute_force_optimal_energy(instance, slot_length=1.0, speeds_per_job=8)
        assert optimum <= greedy + 1e-9
        # Theorem 3 with a large margin: the greedy is within alpha^alpha of OPT.
        assert greedy <= energy_min_competitive_ratio(2.0) * optimum + 1e-9

    def test_above_certified_lower_bound(self, deadline_instance):
        schedule = ConfigLPEnergyScheduler().schedule(deadline_instance)
        assert schedule.total_energy >= best_energy_lower_bound(deadline_instance) - 1e-9

    def test_dual_variables_certificate(self, deadline_instance):
        scheduler = ConfigLPEnergyScheduler()
        schedule = scheduler.schedule(deadline_instance)
        params = smoothness_parameters(deadline_instance.machines[0].alpha)
        dual = scheduler.dual_variables(schedule, params.lam, params.mu)
        # By construction the dual objective is (1-mu)/lambda times the energy.
        expected = (1.0 - params.mu) / params.lam * schedule.total_energy
        assert dual["dual_objective"] == pytest.approx(expected, rel=1e-9)
        assert dual["certified_ratio_bound"] == pytest.approx(params.lam / (1.0 - params.mu))

    def test_dual_variables_validation(self, deadline_instance):
        scheduler = ConfigLPEnergyScheduler()
        schedule = scheduler.schedule(deadline_instance)
        with pytest.raises(InvalidParameterError):
            scheduler.dual_variables(schedule, smooth_lambda=0.0, smooth_mu=0.5)
        with pytest.raises(InvalidParameterError):
            scheduler.dual_variables(schedule, smooth_lambda=1.0, smooth_mu=1.0)


#: One value of 1.0, then ten of 1e-16, each under half an ulp of the total:
#: left to right, as ``sum`` adds on 3.10 and 3.11, the total stays 1.0;
#: 3.12's compensated ``sum`` gives 1.000000000000001.
_TAIL = [1.0] + [1e-16] * 10


class TestTotalsAddLeftToRight:
    def test_marginal_cost_sum(self, monkeypatch):
        # The ``config-lp-energy`` outcome's extras carry the sum of the
        # per-job marginal costs.
        schedule = SimpleNamespace(
            algorithm="stub", total_energy=0.0, summary=dict,
            marginal_costs=dict(enumerate(_TAIL)),
        )
        monkeypatch.setattr(
            catalog, "ConfigLPEnergyScheduler",
            lambda **_: SimpleNamespace(schedule=lambda instance: schedule),
        )
        run = catalog._run_config_lp(None, slot_length=1.0, speeds_per_job=8)
        assert run.extras["marginal_cost_sum"] == 1.0 != math.fsum(_TAIL)

    @pytest.mark.parametrize("half", ["delta", "gamma"])
    def test_dual_objective(self, half):
        # Theorem 3's dual objective adds the job duals (the marginal costs
        # over lambda) and the machine duals (-mu/lambda times each
        # machine's energy); with lambda = 1 and mu = 0.5 either half
        # carries the tail.
        energies = _TAIL if half == "gamma" else [0.0]
        schedule = SimpleNamespace(
            marginal_costs=dict(enumerate(_TAIL)) if half == "delta" else {},
            total_energy=0.0,
            timeline=SimpleNamespace(
                num_machines=len(energies), machine_energy=energies.__getitem__
            ),
        )
        dual = ConfigLPEnergyScheduler().dual_variables(schedule, 1.0, 0.5)
        assert dual["dual_objective"] == (1.0 if half == "delta" else -0.5)
