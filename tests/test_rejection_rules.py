"""The rejection rules of Sections 2 and 3.

Rules 1 and 2 are per-machine integers inside the Theorem 1 scheduler, and
the weighted rule a per-machine pair inside the Theorem 2 scheduler, so they
are tested through the schedulers: one machine, one dispatch per arrival, in
both dispatch modes.
"""

import pytest

from repro.core.bounds import energy_flow_gamma
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.core.rejection import check_epsilon
from repro.exceptions import InvalidParameterError
from repro.simulation.engine import DISPATCH_MODES, FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.speed_engine import SpeedScalingEngine


class TestCheckEpsilon:
    def test_valid(self):
        assert check_epsilon(0.5) == 0.5

    def test_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_epsilon(0.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_epsilon(-0.1)


@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
class TestRule1:
    @pytest.mark.parametrize(
        "epsilon, threshold", [(0.5, 2), (0.25, 4), (0.3, 4), (1.0, 1)]
    )
    def test_rejects_the_running_job_on_the_threshold_dispatch(
        self, dispatch, epsilon, threshold
    ):
        # Job 0 runs from 0 to 100; job k arrives at time k, the k-th
        # dispatch during its run.  ceil(1/eps) of them reject it.
        jobs = [Job(0, 0.0, (100.0,))] + [Job(k, float(k), (1.0,)) for k in range(1, 6)]
        scheduler = RejectionFlowTimeScheduler(epsilon, enable_rule2=False)
        result = FlowTimeEngine(Instance.build(1, jobs), dispatch=dispatch).run(scheduler)
        first = scheduler.rule1_events[0]
        assert (first.job_id, first.time) == (0, float(threshold))
        assert first.remaining_work == pytest.approx(100.0 - threshold)
        record = result.record(0)
        assert record.rejected and record.rejection_reason == "rule1"
        assert record.rejection_time == float(threshold)
        assert not scheduler.rule2_events


@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
class TestRule2:
    @pytest.mark.parametrize(
        "epsilon, threshold", [(0.2, 6), (0.35, 4), (0.5, 3), (0.9, 3)]
    )
    def test_fires_on_every_threshold_dispatch_within_the_budget(
        self, dispatch, epsilon, threshold
    ):
        # One arrival per time unit, each three units long, so the queue
        # builds: every ceil(1 + 1/eps)-th dispatch evicts one job, and over
        # n dispatches that is at most eps * n + 1 evictions.
        n = 1000
        jobs = [Job(k, float(k), (3.0,)) for k in range(n)]
        scheduler = RejectionFlowTimeScheduler(epsilon, enable_rule1=False)
        result = FlowTimeEngine(Instance.build(1, jobs), dispatch=dispatch).run(scheduler)
        times = [event.time for event in scheduler.rule2_events]
        assert times == [float(k) for k in range(threshold - 1, n, threshold)]
        assert len(times) <= epsilon * n + 1
        reasons = [r.rejection_reason for r in result.records.values() if r.rejected]
        assert reasons == ["rule2"] * len(times)


def _weighted_rule_run(dispatch, weights):
    """Job 0 (weight 1.0) runs from time 0 well past the others' arrivals;
    job k arrives at time k with weight ``weights[k - 1]``."""
    jobs = [Job(0, 0.0, (1000.0,), weight=1.0)]
    jobs += [Job(k, float(k), (1.0,), weight=w) for k, w in enumerate(weights, 1)]
    instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
    scheduler = RejectionEnergyFlowScheduler(epsilon=0.5)
    result = SpeedScalingEngine(instance, dispatch=dispatch).run(scheduler)
    return scheduler, result


@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
class TestWeightedRule:
    def test_rejects_on_the_dispatch_past_w_over_epsilon(self, dispatch):
        # w_0 / eps = 2.0.  The weight dispatched during job 0's run reaches
        # exactly 2.0 at time 2, which is not strictly above it; the next
        # dispatch takes it to 2.25 and rejects job 0.
        scheduler, result = _weighted_rule_run(dispatch, [1.25, 0.75, 0.25, 0.5])
        assert [(e.job_id, e.time) for e in scheduler.rejection_events] == [(0, 3.0)]
        record = result.record(0)
        assert record.rejected and record.rejection_reason == "weighted-rule"
        assert record.rejection_time == 3.0
        assert [r.job_id for r in result.records.values() if r.rejected] == [0]

    def test_never_rejects_at_exactly_w_over_epsilon(self, dispatch):
        scheduler, result = _weighted_rule_run(dispatch, [1.25, 0.75])
        assert not scheduler.rejection_events
        assert not any(record.rejected for record in result.records.values())

    def test_counts_only_dispatches_during_the_running_jobs_run(self, dispatch):
        # Job 0 is rejected at time 3; job 1 (the densest pending) starts
        # then with a fresh count, and the jobs dispatched before its start
        # do not count towards its threshold of 1.25 / 0.5 = 2.5.
        scheduler, _ = _weighted_rule_run(dispatch, [1.25, 0.75, 0.25, 2.0, 0.5])
        assert [(e.job_id, e.time) for e in scheduler.rejection_events] == [(0, 3.0)]


@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
class TestDiagnostics:
    # The rejection counts of both schedulers, under the same keys: each
    # rejection is recorded once, as a rule event, and counted from there.
    def test_theorem_1(self, dispatch):
        jobs = [Job(0, 0.0, (100.0,))] + [Job(k, float(k), (2.0 + k,)) for k in range(1, 7)]
        scheduler = RejectionFlowTimeScheduler(0.5)
        FlowTimeEngine(Instance.build(1, jobs), dispatch=dispatch).run(scheduler)
        assert list(scheduler.diagnostics().items()) == [
            ("lambda_sum", 139.66666666666669),
            ("rule1_rejections", 3),
            ("rule2_rejections", 2),
            ("weighted_rejections", 0),
            ("rule1_events", 3),
            ("rule2_events", 2),
        ]

    def test_theorem_2(self, dispatch):
        scheduler, _ = _weighted_rule_run(dispatch, [1.25, 0.75, 0.25, 0.5])
        assert list(scheduler.diagnostics().items()) == [
            ("alpha", 2.0),
            ("gamma", energy_flow_gamma(0.5, 2.0)),
            ("lambda_sum", 1673.205329839339),
            ("rule1_rejections", 0),
            ("rule2_rejections", 0),
            ("weighted_rejections", 1),
        ]
