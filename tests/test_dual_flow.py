"""Tests for the Section 2 dual-fitting accountant (Lemma 4, Theorem 1 analysis)."""

import math

import pytest

from repro.core.dual import FlowTimeDualAccountant
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.engine import FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.workloads.adversarial import lemma1_instance, overload_burst_instance
from repro.workloads.generators import InstanceGenerator


def _run(instance, epsilon):
    scheduler = RejectionFlowTimeScheduler(epsilon=epsilon)
    result = FlowTimeEngine(instance).run(scheduler)
    return FlowTimeDualAccountant(result, scheduler), result


class TestDualFeasibility:
    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 0.75])
    def test_random_instances(self, epsilon):
        instance = InstanceGenerator(num_machines=3, seed=3).generate(50)
        accountant, _ = _run(instance, epsilon)
        check = accountant.check_feasibility(samples_per_job=15)
        assert check.checked_constraints > 0
        assert check.feasible, f"violations: {check.violations[:3]}"

    def test_adversarial_instance(self):
        accountant, _ = _run(lemma1_instance(length=8.0, epsilon=0.25), 0.25)
        check = accountant.check_feasibility(samples_per_job=10)
        assert check.feasible

    def test_overload_instance(self):
        accountant, _ = _run(overload_burst_instance(2, burst_jobs=3, trailing_shorts=60), 0.5)
        check = accountant.check_feasibility(samples_per_job=10)
        assert check.feasible


class TestDualQuantities:
    def test_dispatch_machines_are_the_dispatch_decisions(self):
        # The machine of each job, in arrival order (the order the
        # accountant's sums add in): what the run dispatched.
        instance = InstanceGenerator(num_machines=3, seed=8).generate(120)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.25)
        events = []
        stepper = FlowTimeEngine(instance).stepper(scheduler, events.append)
        stepper.offer_many(instance.jobs)
        stepper.drain()
        result = stepper.finish()
        accountant = FlowTimeDualAccountant(result, scheduler)
        dispatched = [(e.job_id, e.machine) for e in events if e.kind == "dispatch"]
        assert list(accountant._dispatch_machine.items()) == dispatched
        assert dict(dispatched) == {r.job_id: r.machine for r in result.records.values()}
        assert scheduler.rule1_events and scheduler.rule2_events

    def test_beta_integral_matches_definitive_flow(self):
        instance = InstanceGenerator(num_machines=2, seed=4).generate(30)
        accountant, result = _run(instance, 0.5)
        check = accountant.check_feasibility(samples_per_job=5)
        epsilon = 0.5
        scale = epsilon / (1.0 + epsilon) ** 2
        assert check.beta_integral == pytest.approx(scale * check.extended_flow_time)

    def test_extended_flow_at_least_algorithm_flow(self):
        instance = InstanceGenerator(num_machines=2, seed=4).generate(30)
        accountant, result = _run(instance, 0.5)
        check = accountant.check_feasibility(samples_per_job=5)
        # C~_j - r_j >= F_j for every job, so the totals compare the same way.
        assert check.extended_flow_time >= check.algorithm_flow_time - 1e-9

    def test_dual_objective_dominates_analysis_bound(self):
        # The Theorem 1 chain: dual objective >= (eps/(1+eps))^2 sum(C~_j - r_j).
        instance = InstanceGenerator(num_machines=3, seed=9).generate(60)
        accountant, _ = _run(instance, 0.4)
        check = accountant.check_feasibility(samples_per_job=5)
        assert check.dual_objective >= accountant.theoretical_dual_lower_bound() - 1e-6

    def test_pending_count_matches_queue(self):
        jobs = [Job(0, 0.0, (4.0,)), Job(1, 1.0, (2.0,)), Job(2, 1.5, (1.0,))]
        instance = Instance.build(1, jobs)
        scheduler = RejectionFlowTimeScheduler(
            epsilon=0.5, enable_rule1=False, enable_rule2=False
        )
        result = FlowTimeEngine(instance).run(scheduler)
        accountant = FlowTimeDualAccountant(result, scheduler)
        # At time 2.0 job 0 is running and jobs 1, 2 wait (rules disabled, no rejection).
        assert accountant.pending_count(0, 2.0) == 3

    def test_definitive_finish_no_rejections(self):
        jobs = [Job(0, 0.0, (2.0,)), Job(1, 5.0, (1.0,))]
        instance = Instance.build(1, jobs)
        accountant, result = _run(instance, 0.5)
        # Without any rejection C~_j equals the completion time.
        for job_id, record in result.records.items():
            assert accountant.definitive_finish(job_id) == pytest.approx(record.completion)

    def test_requires_populated_scheduler(self):
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
        result = FlowTimeEngine(instance).run(scheduler)
        fresh = RejectionFlowTimeScheduler(epsilon=0.5)
        with pytest.raises(InvalidParameterError):
            FlowTimeDualAccountant(result, fresh)

    def test_dual_to_flow_ratio_positive(self):
        instance = InstanceGenerator(num_machines=2, seed=1).generate(40)
        accountant, _ = _run(instance, 0.5)
        check = accountant.check_feasibility(samples_per_job=5)
        assert check.dual_to_flow_ratio > 0


class TestTotalsAddLeftToRight:
    """The dual's totals add left to right, as ``sum`` does on 3.10 and 3.11.

    Job 0 runs alone on machine 0 from 0 to 1.0; each of ten jobs runs alone
    on its own machine from the float just below 1.0 to 1.0, so its flow
    time, and its lambda, is 2**-53, half an ulp of 1.0.  Each arrives and
    completes after job 0's values, which come first in every total; left
    to right each half ulp rounds away, and Python 3.12's compensated
    ``sum`` gives 1.000000000000001.
    """

    @pytest.fixture(scope="class")
    def run(self):
        below_one = math.nextafter(1.0, 0.0)
        num_machines = 11

        def only_on(machine, size):
            return tuple(size if i == machine else math.inf for i in range(num_machines))

        jobs = [Job(0, 0.0, only_on(0, 1.0))]
        jobs += [Job(k, below_one, only_on(k, 1.0 - below_one)) for k in range(1, num_machines)]
        accountant, result = _run(Instance.build(num_machines, jobs), 0.5)
        return accountant, result, accountant.check_feasibility()

    def test_lambda_sum(self, run):
        accountant, _, check = run
        lambdas = list(accountant.scheduler.lambdas.values())
        assert lambdas[0] == 1.0 and lambdas[1:] == [2.0**-53] * 10
        assert check.lambda_sum == 1.0 != math.fsum(lambdas)

    def test_algorithm_flow_time(self, run):
        _, result, check = run
        flows = [record.flow_time for record in result.records.values()]
        assert flows == [1.0] + [2.0**-53] * 10
        assert check.algorithm_flow_time == 1.0 != math.fsum(flows)

    def test_extended_flow_time(self, run):
        accountant, result, check = run
        extended = [
            accountant.definitive_finish(job_id) - record.release
            for job_id, record in result.records.items()
        ]
        assert extended == [1.0] + [2.0**-53] * 10
        assert check.extended_flow_time == 1.0 != math.fsum(extended)

    def test_theoretical_dual_lower_bound(self, run):
        accountant, _, _ = run
        assert accountant.theoretical_dual_lower_bound() == (0.5 / 1.5) ** 2 * 1.0
