"""Tests for the Theorem 2 scheduler (Section 3 algorithm)."""

import math

import pytest

from repro.core.bounds import energy_flow_gamma
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.metrics import (
    flow_plus_energy,
    rejected_weight_fraction,
    total_energy,
)
from repro.simulation.speed_engine import SpeedScalingEngine
from repro.simulation.state import EngineState
from repro.simulation.validation import validate_result
from repro.workloads.generators import WeightedInstanceGenerator


def _instance(jobs, alpha=2.0, machines=1):
    return Instance.build(Machine.fleet(machines, alpha=alpha), jobs)


class TestSpeedChoice:
    def test_single_job_speed(self):
        # One pending job of weight w: start speed = gamma * w^(1/alpha).
        jobs = [Job(0, 0.0, (4.0,), weight=8.0)]
        instance = _instance(jobs, alpha=3.0)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5, gamma=0.5)
        result = SpeedScalingEngine(instance).run(scheduler)
        interval = result.intervals[0]
        assert interval.speed == pytest.approx(0.5 * 8.0 ** (1.0 / 3.0))

    def test_speed_grows_with_backlog(self):
        # While the long job runs, two short jobs queue up; the first of them
        # starts with two jobs pending (speed sqrt(2)) and the last with one.
        jobs = [
            Job(0, 0.0, (10.0,), weight=1.0),
            Job(1, 1.0, (1.0,), weight=1.0),
            Job(2, 2.0, (1.0,), weight=1.0),
        ]
        instance = _instance(jobs, alpha=2.0)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.9, gamma=1.0, enable_rejection=False)
        result = SpeedScalingEngine(instance).run(scheduler)
        ordered = sorted(result.intervals, key=lambda iv: iv.start)
        assert ordered[0].speed == pytest.approx(1.0)           # only the long job pending
        assert ordered[1].speed == pytest.approx(2.0 ** 0.5)    # two short jobs pending
        assert ordered[2].speed == pytest.approx(1.0)           # last job alone

    def test_paper_gamma_used_by_default(self):
        instance = _instance([Job(0, 0.0, (1.0,))], alpha=2.5)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.3)
        SpeedScalingEngine(instance).run(scheduler)
        assert scheduler.gamma == pytest.approx(energy_flow_gamma(0.3, 2.5))

    def test_pending_weights_add_left_to_right(self):
        # 1.0 then ten 1e-16 add to 1.0 left to right, as ``sum`` does on
        # 3.10 and 3.11; 3.12's compensated ``sum`` gives 1.000000000000001,
        # which would start the job at another speed.
        jobs = [Job(0, 0.0, (1.0,), weight=1.0)]
        jobs += [Job(k, 0.0, (1.0,), weight=1e-16) for k in range(1, 11)]
        instance = _instance(jobs, alpha=3.0)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)
        scheduler.reset(instance)
        state = EngineState(instance)
        for job in jobs:
            state.register_job(job)
        state.machines[0].pending.update(dict.fromkeys(range(11)))
        decision = scheduler.select_next(0.0, 0, state)
        assert decision.job_id == 0
        assert decision.speed == scheduler.gamma * 1.0 ** (1.0 / 3.0)

    def test_lambda_sum_adds_left_to_right(self):
        # Each job arrives to an empty queue: one lambda near 1.26, then ten
        # near 1.26e-16, each over half an ulp of the total.  Left to right,
        # as ``sum`` adds on 3.10 and 3.11, each rounds the total up one ulp;
        # 3.12's compensated ``sum`` rounds once, to other bits.
        jobs = [Job(0, 0.0, (1.0,))] + [Job(k, 10.0 * k, (1e-16,)) for k in range(1, 11)]
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)
        SpeedScalingEngine(_instance(jobs, alpha=3.0)).run(scheduler)
        lambdas = list(scheduler.lambdas.values())
        expected = 0
        for value in lambdas:
            expected += value
        assert expected != math.fsum(lambdas)
        assert scheduler.diagnostics()["lambda_sum"] == expected

    def test_density_order_execution(self):
        # While job 0 runs, two jobs queue up; the higher-density one (job 2)
        # must start first once the machine becomes idle.
        jobs = [
            Job(0, 0.0, (5.0,), weight=1.0),
            Job(1, 0.5, (4.0,), weight=1.0),   # density 0.25
            Job(2, 0.6, (2.0,), weight=4.0),   # density 2.0
        ]
        instance = _instance(jobs, alpha=2.0)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.9, enable_rejection=False)
        result = SpeedScalingEngine(instance).run(scheduler)
        assert result.record(2).start < result.record(1).start


class TestWeightedRejection:
    def test_running_job_rejected_when_weight_piles_up(self):
        # Long low-weight job, then heavy jobs arrive: v_k exceeds w_k/eps.
        jobs = [
            Job(0, 0.0, (100.0,), weight=1.0),
            Job(1, 0.5, (1.0,), weight=3.0),
        ]
        instance = _instance(jobs, alpha=2.0)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)  # threshold w/eps = 2
        result = SpeedScalingEngine(instance).run(scheduler)
        assert result.record(0).rejected
        assert result.record(0).rejection_time == pytest.approx(0.5)

    def test_no_rejection_below_threshold(self):
        jobs = [
            Job(0, 0.0, (10.0,), weight=10.0),
            Job(1, 0.5, (1.0,), weight=1.0),
        ]
        instance = _instance(jobs, alpha=2.0)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)  # threshold 20
        result = SpeedScalingEngine(instance).run(scheduler)
        assert not result.record(0).rejected

    def test_rejected_weight_budget_random(self):
        for seed in (0, 1):
            for epsilon in (0.25, 0.5):
                instance = WeightedInstanceGenerator(
                    num_machines=2, alpha=2.5, seed=seed
                ).generate(80)
                scheduler = RejectionEnergyFlowScheduler(epsilon=epsilon)
                result = SpeedScalingEngine(instance).run(scheduler)
                assert rejected_weight_fraction(result) <= epsilon + 1e-9

    def test_rejection_can_be_disabled(self, weighted_instance):
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.25, enable_rejection=False)
        result = SpeedScalingEngine(weighted_instance).run(scheduler)
        assert rejected_weight_fraction(result) == 0.0


class TestObjectiveBehaviour:
    def test_valid_schedule(self, weighted_instance):
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.3)
        result = SpeedScalingEngine(weighted_instance).run(scheduler)
        validate_result(result)
        assert total_energy(result) > 0

    def test_rejection_helps_on_heavy_backlog(self):
        jobs = [Job(0, 0.0, (60.0,), weight=0.5)]
        jobs += [Job(j, 1.0 + 0.2 * j, (1.0,), weight=2.0) for j in range(1, 25)]
        instance = _instance(jobs, alpha=2.0)
        engine = SpeedScalingEngine(instance)
        with_rejection = flow_plus_energy(
            engine.run(RejectionEnergyFlowScheduler(epsilon=0.3))
        )
        without_rejection = flow_plus_energy(
            engine.run(RejectionEnergyFlowScheduler(epsilon=0.3, enable_rejection=False))
        )
        assert with_rejection < without_rejection

    def test_requires_uniform_alpha(self):
        machines = (Machine(0, alpha=2.0), Machine(1, alpha=3.0))
        instance = Instance.build(machines, [Job(0, 0.0, (1.0, 1.0))])
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)
        with pytest.raises(InvalidParameterError):
            SpeedScalingEngine(instance).run(scheduler)

    def test_requires_alpha_above_one(self):
        instance = Instance.build(Machine.fleet(1, alpha=1.0), [Job(0, 0.0, (1.0,))])
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)
        with pytest.raises(InvalidParameterError):
            SpeedScalingEngine(instance).run(scheduler)

    def test_diagnostics(self, weighted_instance):
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.3)
        SpeedScalingEngine(weighted_instance).run(scheduler)
        diagnostics = scheduler.diagnostics()
        assert diagnostics["alpha"] == pytest.approx(2.5)
        assert diagnostics["gamma"] > 0
        assert diagnostics["lambda_sum"] > 0
