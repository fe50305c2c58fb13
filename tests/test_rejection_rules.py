"""The rejection rules of Sections 2 and 3.

Rules 1 and 2 are per-machine integers inside the Theorem 1 scheduler, so
they are tested through it: one machine, one dispatch per arrival, in both
dispatch modes.
"""

import pytest

from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.core.rejection import RejectionLog, WeightedRunningJobCounter, check_epsilon
from repro.exceptions import InvalidParameterError
from repro.simulation.engine import DISPATCH_MODES, FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job


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


class TestWeightedCounter:
    def test_fires_only_above_threshold(self):
        counter = WeightedRunningJobCounter(epsilon=0.5, job_weight=2.0)  # threshold 4.0
        assert not counter.record_dispatch(3.0)
        assert not counter.record_dispatch(1.0)  # exactly 4.0 is not strictly above
        assert counter.record_dispatch(0.1)

    def test_rejected_weight_bounded(self):
        # When the rule fires, the job's weight is less than epsilon times the
        # accumulated dispatched weight - the Theorem 2 budget argument.
        epsilon = 0.25
        counter = WeightedRunningJobCounter(epsilon=epsilon, job_weight=1.0)
        total = 0.0
        while not counter.fired:
            counter.record_dispatch(0.5)
            total += 0.5
        assert 1.0 < epsilon * total + 0.5  # job weight < eps * accumulated (+ last step)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            WeightedRunningJobCounter(epsilon=0.5, job_weight=0.0)
        counter = WeightedRunningJobCounter(epsilon=0.5, job_weight=1.0)
        with pytest.raises(InvalidParameterError):
            counter.record_dispatch(-1.0)


class TestRejectionLog:
    def test_totals(self):
        log = RejectionLog()
        log.rule1.append(1)
        log.rule2.extend([2, 3])
        log.weighted.append(4)
        assert log.total() == 4
        assert log.as_dict() == {
            "rule1_rejections": 1,
            "rule2_rejections": 2,
            "weighted_rejections": 1,
        }
