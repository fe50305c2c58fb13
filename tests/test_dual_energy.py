"""Tests for the Section 3 dual accountant (Lemma 5 / Lemma 6)."""

import math

import pytest

from repro.core.dual_energy import EnergyFlowDualAccountant
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.speed_engine import SpeedScalingEngine
from repro.workloads.generators import WeightedInstanceGenerator


def _run(instance, epsilon):
    scheduler = RejectionEnergyFlowScheduler(epsilon=epsilon)
    result = SpeedScalingEngine(instance).run(scheduler)
    return EnergyFlowDualAccountant(result, scheduler), result


class TestEnergyDualFeasibility:
    @pytest.mark.parametrize("epsilon", [0.25, 0.5])
    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
    def test_random_instances(self, epsilon, alpha):
        instance = WeightedInstanceGenerator(num_machines=2, alpha=alpha, seed=13).generate(35)
        accountant, _ = _run(instance, epsilon)
        check = accountant.check_feasibility(samples_per_job=8)
        assert check.checked_constraints > 0
        assert check.feasible, f"violations: {check.violations[:3]}"

    def test_monotonicity_of_fractional_weight(self):
        instance = WeightedInstanceGenerator(num_machines=2, alpha=2.5, seed=21).generate(40)
        accountant, _ = _run(instance, 0.4)
        check = accountant.check_feasibility(samples_per_job=5)
        assert check.monotonicity_violations == 0


class TestEnergyDualQuantities:
    def test_dispatch_machines_are_the_dispatch_decisions(self):
        # As for Theorem 1: the run's dispatches, in arrival order.
        instance = WeightedInstanceGenerator(num_machines=3, alpha=2.5, seed=17).generate(120)
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.2)
        events = []
        stepper = SpeedScalingEngine(instance).stepper(scheduler, events.append)
        stepper.offer_many(instance.jobs)
        stepper.drain()
        result = stepper.finish()
        accountant = EnergyFlowDualAccountant(result, scheduler)
        dispatched = [(e.job_id, e.machine) for e in events if e.kind == "dispatch"]
        assert list(accountant._dispatch_machine.items()) == dispatched
        assert dict(dispatched) == {r.job_id: r.machine for r in result.records.values()}
        assert scheduler.rejection_events

    def test_lambda_sum_adds_left_to_right(self):
        # Each job arrives to an empty queue: one lambda near 1.26, then ten
        # near 1.26e-16, each over half an ulp of the total.  Left to right,
        # as ``sum`` adds on 3.10 and 3.11, each rounds the total up one ulp;
        # 3.12's compensated ``sum`` rounds once, to other bits.
        jobs = [Job(0, 0.0, (1.0,))] + [Job(k, 10.0 * k, (1e-16,)) for k in range(1, 11)]
        accountant, _ = _run(Instance.build(Machine.fleet(1, alpha=3.0), jobs), 0.5)
        lambdas = list(accountant.scheduler.lambdas.values())
        expected = 0
        for value in lambdas:
            expected += value
        assert expected != math.fsum(lambdas)
        assert accountant.check_feasibility(samples_per_job=2).lambda_sum == expected

    def test_remaining_volume_decreases(self):
        jobs = [Job(0, 0.0, (6.0,), weight=2.0)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        accountant, result = _run(instance, 0.5)
        record = result.record(0)
        start, end = record.start, record.completion
        mid = (start + end) / 2.0
        assert accountant.remaining_volume(0, 0, start) == pytest.approx(6.0)
        assert accountant.remaining_volume(0, 0, mid) == pytest.approx(3.0, rel=1e-6)
        assert accountant.remaining_volume(0, 0, end + 1.0) == pytest.approx(0.0)

    def test_fractional_weight_zero_after_everything_finishes(self):
        instance = WeightedInstanceGenerator(num_machines=1, alpha=2.0, seed=2).generate(10)
        accountant, result = _run(instance, 0.5)
        late = result.makespan() + 100.0
        assert accountant.fractional_weight(0, late) == pytest.approx(0.0)

    def test_u_scales_with_fractional_weight(self):
        jobs = [Job(0, 0.0, (6.0,), weight=4.0), Job(1, 0.0, (6.0,), weight=4.0)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        accountant, result = _run(instance, 0.9)
        early = accountant.u(0, 0.05)
        late = accountant.u(0, result.makespan() + 1.0)
        assert early > late == 0.0

    def test_requires_populated_scheduler(self):
        instance = Instance.build(Machine.fleet(1, alpha=2.0), [Job(0, 0.0, (1.0,))])
        scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)
        result = SpeedScalingEngine(instance).run(scheduler)
        fresh = RejectionEnergyFlowScheduler(epsilon=0.5)
        with pytest.raises(InvalidParameterError):
            EnergyFlowDualAccountant(result, fresh)
