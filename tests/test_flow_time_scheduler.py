"""Tests for the Theorem 1 scheduler (Section 2 algorithm)."""

import math

import pytest

from repro.core.bounds import flow_time_rejection_budget
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.exceptions import InvalidParameterError
from repro.simulation.engine import FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.metrics import rejected_fraction, total_flow_time
from repro.simulation.state import EngineState
from repro.simulation.validation import validate_result
from repro.workloads.adversarial import lemma1_instance, overload_burst_instance
from repro.workloads.generators import InstanceGenerator


class TestLambdaComputation:
    def test_empty_machine(self):
        instance = Instance.build(2, [Job(0, 0.0, (4.0, 6.0))])
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
        scheduler.reset(instance)
        state = EngineState(instance)
        job = instance.jobs[0]
        # No pending jobs: lambda_ij = p/eps + p.
        assert scheduler.lambda_ij(job, 0, state) == pytest.approx(4.0 / 0.5 + 4.0)
        assert scheduler.lambda_ij(job, 1, state) == pytest.approx(6.0 / 0.5 + 6.0)

    def test_accounts_for_pending_jobs(self):
        jobs = [Job(0, 0.0, (2.0,)), Job(1, 0.0, (5.0,)), Job(2, 0.0, (3.0,))]
        instance = Instance.build(1, jobs)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
        scheduler.reset(instance)
        state = EngineState(instance)
        for job in jobs:
            state.register_job(job)
        state.machines[0].pending.update(dict.fromkeys([0, 1]))  # sizes 2 and 5 wait
        new_job = jobs[2]  # size 3: job 0 precedes it, job 1 succeeds it
        expected = 3.0 / 0.5 + (2.0 + 3.0) + 1 * 3.0
        assert scheduler.lambda_ij(new_job, 0, state) == pytest.approx(expected)

    def test_pending_total_size_adds_left_to_right(self):
        # As ``sum`` adds on 3.10 and 3.11; 3.12's compensated ``sum`` gives
        # 1.000000000000001 here.
        jobs = [Job(0, 0.0, (1.0,))] + [Job(k, 0.0, (1e-16,)) for k in range(1, 11)]
        state = EngineState(Instance.build(1, jobs))
        for job in jobs:
            state.register_job(job)
        state.machines[0].pending.update(dict.fromkeys(range(11)))
        assert state.pending_total_size(0) == 1.0

    def test_lambda_sum_adds_left_to_right(self):
        # Each job arrives to an empty queue, so its lambda is its size: 1.0,
        # then ten 1e-16.  Left to right, as ``sum`` adds on 3.10 and 3.11,
        # the ten vanish; 3.12's compensated ``sum`` gives 1.000000000000001.
        jobs = [Job(0, 0.0, (1.0,))] + [Job(k, 10.0 * k, (1e-16,)) for k in range(1, 11)]
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
        FlowTimeEngine(Instance.build(1, jobs)).run(scheduler)
        assert list(scheduler.lambdas.values()) == [1.0] + [1e-16] * 10
        assert scheduler.diagnostics()["lambda_sum"] == 1.0

    def test_dispatch_to_argmin(self):
        jobs = [Job(0, 0.0, (10.0, 1.0))]
        instance = Instance.build(2, jobs)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
        result = FlowTimeEngine(instance).run(scheduler)
        assert result.record(0).machine == 1

    def test_lambda_recorded_for_every_job(self, random_instance):
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
        FlowTimeEngine(random_instance).run(scheduler)
        assert set(scheduler.lambdas) == {job.id for job in random_instance.jobs}
        assert all(value > 0 for value in scheduler.lambdas.values())


class TestRejectionRules:
    def test_rule1_rejects_running_long_job(self):
        # One long job, then ceil(1/eps)=2 short arrivals dispatched to the same
        # machine: the running long job must be rejected at the second arrival.
        jobs = [Job(0, 0.0, (100.0,)), Job(1, 1.0, (1.0,)), Job(2, 2.0, (1.0,))]
        instance = Instance.build(1, jobs)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5, enable_rule2=False)
        result = FlowTimeEngine(instance).run(scheduler)
        assert result.record(0).rejected
        assert result.record(0).rejection_time == pytest.approx(2.0)
        assert result.record(0).rejection_reason == "rule1"
        # The short jobs then complete quickly.
        assert result.record(1).finished and result.record(2).finished

    def test_rule1_disabled(self):
        jobs = [Job(0, 0.0, (100.0,)), Job(1, 1.0, (1.0,)), Job(2, 2.0, (1.0,))]
        instance = Instance.build(1, jobs)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5, enable_rule1=False, enable_rule2=False)
        result = FlowTimeEngine(instance).run(scheduler)
        assert not result.record(0).rejected
        assert rejected_fraction(result) == 0.0

    def test_rule2_rejects_largest_pending(self):
        # eps=0.5: Rule 2 fires every ceil(1 + 2) = 3 dispatches and evicts the
        # largest *pending* job (the running one is excluded).
        jobs = [
            Job(0, 0.0, (5.0,)),
            Job(1, 0.1, (9.0,)),
            Job(2, 0.2, (1.0,)),
        ]
        instance = Instance.build(1, jobs)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5, enable_rule1=False)
        result = FlowTimeEngine(instance).run(scheduler)
        assert result.record(1).rejected
        assert result.record(1).rejection_reason == "rule2"
        assert result.record(1).rejection_time == pytest.approx(0.2)

    def test_rule2_can_reject_the_arriving_job(self):
        jobs = [
            Job(0, 0.0, (5.0,)),
            Job(1, 0.1, (1.0,)),
            Job(2, 0.2, (9.0,)),  # the arriving job is itself the largest pending
        ]
        instance = Instance.build(1, jobs)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5, enable_rule1=False)
        result = FlowTimeEngine(instance).run(scheduler)
        assert result.record(2).rejected

    def test_rejection_budget_on_random_instances(self):
        for seed in (0, 1, 2):
            for epsilon in (0.2, 0.4, 0.7):
                instance = InstanceGenerator(num_machines=3, seed=seed).generate(120)
                scheduler = RejectionFlowTimeScheduler(epsilon=epsilon)
                result = FlowTimeEngine(instance).run(scheduler)
                assert rejected_fraction(result) <= flow_time_rejection_budget(epsilon) + 1e-9

    def test_rejection_budget_on_adversarial_instances(self):
        for epsilon in (0.25, 0.5):
            for instance in (
                lemma1_instance(length=8.0, epsilon=epsilon),
                overload_burst_instance(2, burst_jobs=4),
            ):
                result = FlowTimeEngine(instance).run(RejectionFlowTimeScheduler(epsilon=epsilon))
                assert rejected_fraction(result) <= flow_time_rejection_budget(epsilon) + 1e-9


class TestSchedulingBehaviour:
    def test_schedules_valid_non_preemptive(self, random_instance):
        scheduler = RejectionFlowTimeScheduler(epsilon=0.3)
        result = FlowTimeEngine(random_instance).run(scheduler)
        validate_result(result)

    def test_spt_local_order(self):
        jobs = [Job(0, 0.0, (1.0,)), Job(1, 0.0, (5.0,)), Job(2, 0.0, (2.0,))]
        instance = Instance.build(1, jobs)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.9, enable_rule1=False, enable_rule2=False)
        result = FlowTimeEngine(instance).run(scheduler)
        starts = {job_id: result.record(job_id).start for job_id in (0, 1, 2)}
        assert starts[0] < starts[2] < starts[1]

    def test_beats_greedy_on_overload(self):
        from repro.baselines.greedy import GreedyDispatchScheduler

        instance = overload_burst_instance(2, burst_jobs=3)
        engine = FlowTimeEngine(instance)
        ours = total_flow_time(engine.run(RejectionFlowTimeScheduler(epsilon=0.25)))
        greedy = total_flow_time(engine.run(GreedyDispatchScheduler()))
        assert ours < greedy

    def test_diagnostics_reported(self, random_instance):
        scheduler = RejectionFlowTimeScheduler(epsilon=0.4)
        FlowTimeEngine(random_instance).run(scheduler)
        diagnostics = scheduler.diagnostics()
        assert diagnostics["lambda_sum"] > 0
        assert diagnostics["rule1_rejections"] >= 0

    def test_restricted_assignment_respected(self):
        jobs = [Job(0, 0.0, (math.inf, 3.0)), Job(1, 0.0, (2.0, math.inf))]
        instance = Instance.build(2, jobs)
        result = FlowTimeEngine(instance).run(RejectionFlowTimeScheduler(epsilon=0.5))
        assert result.record(0).machine == 1
        assert result.record(1).machine == 0

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            RejectionFlowTimeScheduler(epsilon=0.0)

    def test_reusable_across_runs(self, random_instance, tiny_instance):
        scheduler = RejectionFlowTimeScheduler(epsilon=0.5)
        first = FlowTimeEngine(random_instance).run(scheduler)
        second = FlowTimeEngine(tiny_instance).run(scheduler)
        assert len(second.records) == tiny_instance.num_jobs
        assert len(scheduler.lambdas) == tiny_instance.num_jobs  # state reset between runs
        del first
