"""Unit tests for the schedule validator."""

import math

import pytest

from repro.exceptions import ScheduleValidationError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.schedule import ExecutionInterval, JobRecord, SimulationResult
from repro.simulation.validation import assert_rejection_budget, validate_result


def _instance() -> Instance:
    return Instance.build(1, [Job(0, 0.0, (2.0,)), Job(1, 1.0, (3.0,))])


def _good_result() -> SimulationResult:
    records = {
        0: JobRecord(0, 1.0, 0.0, 0, 0.0, 2.0, False),
        1: JobRecord(1, 1.0, 1.0, 0, 2.0, 5.0, False),
    }
    intervals = [ExecutionInterval(0, 0, 0.0, 2.0), ExecutionInterval(0, 1, 2.0, 5.0)]
    return SimulationResult(_instance(), records, intervals)


class TestValidateResult:
    def test_valid_schedule_passes(self):
        report = validate_result(_good_result())
        assert report.ok

    def test_missing_record_detected(self):
        result = _good_result()
        del result.records[1]
        report = validate_result(result, raise_on_error=False)
        assert not report.ok

    def test_overlap_detected(self):
        result = _good_result()
        result.intervals[1] = ExecutionInterval(0, 1, 1.0, 4.0)
        report = validate_result(result, raise_on_error=False)
        assert any("overlaps" in v for v in report.violations)

    def test_start_before_release_detected(self):
        result = _good_result()
        result.intervals[1] = ExecutionInterval(0, 1, 0.5, 3.5)
        result.records[1] = JobRecord(1, 1.0, 1.0, 0, 0.5, 3.5, False)
        report = validate_result(result, raise_on_error=False)
        assert any("before release" in v for v in report.violations)

    def test_preempted_completed_job_detected(self):
        result = _good_result()
        result.intervals.append(ExecutionInterval(0, 0, 6.0, 6.5))
        report = validate_result(result, raise_on_error=False)
        assert any("non-preemptive" in v for v in report.violations)

    def test_wrong_amount_of_work_detected(self):
        result = _good_result()
        result.intervals[0] = ExecutionInterval(0, 0, 0.0, 1.0)
        report = validate_result(result, raise_on_error=False)
        assert any("units of work" in v for v in report.violations)

    def test_raise_on_error(self):
        result = _good_result()
        del result.records[1]
        with pytest.raises(ScheduleValidationError):
            validate_result(result)

    def test_deadline_check(self):
        jobs = [Job(0, 0.0, (2.0,), deadline=1.5)]
        instance = Instance.build(1, jobs)
        records = {0: JobRecord(0, 1.0, 0.0, 0, 0.0, 2.0, False)}
        intervals = [ExecutionInterval(0, 0, 0.0, 2.0)]
        result = SimulationResult(instance, records, intervals)
        report = validate_result(result, require_deadlines=True, raise_on_error=False)
        assert any("deadline" in v for v in report.violations)
        # Without the deadline requirement the schedule is fine.
        assert validate_result(result, raise_on_error=False).ok


class TestRejectionBudget:
    def _result_with_rejection(self) -> SimulationResult:
        records = {
            0: JobRecord(0, 3.0, 0.0, 0, 0.0, 2.0, False),
            1: JobRecord(1, 1.0, 1.0, 0, None, None, True, rejection_time=1.0),
        }
        intervals = [ExecutionInterval(0, 0, 0.0, 2.0)]
        instance = Instance.build(
            1, [Job(0, 0.0, (2.0,), weight=3.0), Job(1, 1.0, (3.0,), weight=1.0)]
        )
        return SimulationResult(instance, records, intervals)

    def test_count_budget_ok(self):
        assert_rejection_budget(self._result_with_rejection(), max_fraction=0.5)

    def test_count_budget_violated(self):
        with pytest.raises(ScheduleValidationError):
            assert_rejection_budget(self._result_with_rejection(), max_fraction=0.4)

    def test_weight_totals_add_left_to_right(self):
        # Job 0 (weight 1.0) is rejected, then ten jobs of weight 1e-16 run.
        # Left to right the total weight is 1.0, so the rejected fraction is
        # exactly 1.0 and a budget one ulp below it is exceeded; Python 3.12's
        # compensated ``sum()`` would give 1.000000000000001 and let it pass.
        weights = [1.0] + [1e-16] * 10
        instance = Instance.build(1, [Job(j, 0.0, (1.0,), weight=w) for j, w in enumerate(weights)])
        records = {
            j: JobRecord(j, w, 0.0, 0, 0.0, 1.0, False) for j, w in enumerate(weights)
        }
        records[0] = JobRecord(0, 1.0, 0.0, 0, None, None, True, rejection_time=0.0)
        result = SimulationResult(instance, records, [])
        assert_rejection_budget(result, max_fraction=1.0, weighted=True, tol=0.0)
        with pytest.raises(ScheduleValidationError):
            assert_rejection_budget(
                result, max_fraction=math.nextafter(1.0, 0.0), weighted=True, tol=0.0
            )

    def test_weight_budget(self):
        result = self._result_with_rejection()
        assert_rejection_budget(result, max_fraction=0.3, weighted=True)
        with pytest.raises(ScheduleValidationError):
            assert_rejection_budget(result, max_fraction=0.2, weighted=True)
