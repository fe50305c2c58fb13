"""Unit tests for :mod:`repro.simulation.schedule`."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.schedule import ExecutionInterval, JobRecord, SimulationResult


class TestExecutionInterval:
    def test_duration_and_work(self):
        interval = ExecutionInterval(machine=0, job_id=1, start=2.0, end=5.0, speed=2.0)
        assert interval.duration == pytest.approx(3.0)
        assert interval.work == pytest.approx(6.0)

    def test_energy(self):
        interval = ExecutionInterval(machine=0, job_id=1, start=0.0, end=2.0, speed=3.0)
        assert interval.energy(alpha=2.0) == pytest.approx(18.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(SimulationError):
            ExecutionInterval(machine=0, job_id=1, start=5.0, end=2.0)

    def test_non_positive_speed_rejected(self):
        with pytest.raises(SimulationError):
            ExecutionInterval(machine=0, job_id=1, start=0.0, end=1.0, speed=0.0)


class TestJobRecord:
    def test_completed_flow_time(self):
        record = JobRecord(
            job_id=0, weight=2.0, release=1.0, machine=0, start=2.0, completion=5.0, rejected=False
        )
        assert record.finished
        assert record.flow_time == pytest.approx(4.0)
        assert record.weighted_flow_time == pytest.approx(8.0)

    def test_rejected_flow_time(self):
        record = JobRecord(
            job_id=0,
            weight=1.0,
            release=1.0,
            machine=None,
            start=None,
            completion=None,
            rejected=True,
            rejection_time=3.0,
        )
        assert not record.finished
        assert record.flow_time == pytest.approx(2.0)

    def test_rejected_without_time_raises(self):
        record = JobRecord(
            job_id=0, weight=1.0, release=1.0, machine=None, start=None, completion=None,
            rejected=True,
        )
        with pytest.raises(SimulationError):
            _ = record.flow_time

    def test_unsettled_record_raises(self):
        record = JobRecord(
            job_id=0, weight=1.0, release=1.0, machine=None, start=None, completion=None,
            rejected=False,
        )
        with pytest.raises(SimulationError):
            _ = record.flow_time


class TestSimulationResult:
    def _result(self) -> SimulationResult:
        instance = Instance.build(2, [Job(0, 0.0, (1.0, 2.0)), Job(1, 0.0, (2.0, 1.0))])
        records = {
            0: JobRecord(0, 1.0, 0.0, 0, 0.0, 1.0, False),
            1: JobRecord(1, 1.0, 0.0, 1, 0.0, None, True, rejection_time=0.5),
        }
        intervals = [
            ExecutionInterval(0, 0, 0.0, 1.0),
            ExecutionInterval(1, 1, 0.0, 0.5, completed=False),
        ]
        return SimulationResult(instance, records, intervals, algorithm="test")

    def test_record_lookup(self):
        result = self._result()
        assert result.record(0).finished
        assert result.record(1).rejected

    def test_completed_and_rejected_partition(self):
        result = self._result()
        assert {r.job_id for r in result.completed_records()} == {0}
        assert {r.job_id for r in result.rejected_records()} == {1}

    def test_intervals_on_machine(self):
        result = self._result()
        assert [iv.job_id for iv in result.intervals_on(0)] == [0]

    def test_makespan(self):
        assert self._result().makespan() == pytest.approx(1.0)

    def test_unknown_job_record_rejected(self):
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        bad_records = {5: JobRecord(5, 1.0, 0.0, 0, 0.0, 1.0, False)}
        with pytest.raises(SimulationError):
            SimulationResult(instance, bad_records, [])

    def test_unknown_job_record_is_named(self):
        # Records for jobs 0 and 1 and for two unknown ids: the error names
        # the first unknown id in record order.
        instance = Instance.build(1, [Job(0, 0.0, (1.0,)), Job(1, 0.0, (1.0,))])
        records = {
            job_id: JobRecord(job_id, 1.0, 0.0, 0, 0.0, 1.0, False) for job_id in (0, 7, 1, 5)
        }
        with pytest.raises(SimulationError, match=r"^record for unknown job id 7$"):
            SimulationResult(instance, records, [])
