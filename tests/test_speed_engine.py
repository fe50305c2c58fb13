"""Unit tests for the speed-scaling engine."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.metrics import total_energy, total_weighted_flow_time
from repro.simulation.decisions import ArrivalDecision, Rejection, StartDecision
from repro.simulation.speed_engine import SpeedScalingEngine, SpeedScalingPolicy
from repro.simulation.validation import validate_result


class ConstantSpeedPolicy(SpeedScalingPolicy):
    """Dispatch to machine 0 and run everything at a fixed speed, FIFO order."""

    name = "test-constant-speed"

    def __init__(self, speed: float = 2.0) -> None:
        self.speed = speed

    def on_arrival(self, t, job, state):
        return ArrivalDecision.dispatch(0)

    def select_next(self, t, machine, state):
        pending = state.pending_jobs(machine)
        if not pending:
            return None
        job = min(pending, key=lambda j: (j.release, j.id))
        return StartDecision(job_id=job.id, speed=self.speed)


class RejectRunningOnArrival(SpeedScalingPolicy):
    """Interrupts the running job whenever a new one arrives."""

    name = "test-speed-interrupt"

    def on_arrival(self, t, job, state):
        running = state.running(0)
        rejections = [Rejection(running.job.id)] if running else []
        return ArrivalDecision.dispatch(0, rejections)

    def select_next(self, t, machine, state):
        pending = state.pending_jobs(machine)
        if not pending:
            return None
        return StartDecision(job_id=pending[0].id, speed=1.0)


def _single(alpha: float, jobs) -> Instance:
    return Instance.build(Machine.fleet(1, alpha=alpha), jobs)


class TestSpeedExecution:
    def test_duration_scales_with_speed(self):
        instance = _single(2.0, [Job(0, 0.0, (6.0,))])
        result = SpeedScalingEngine(instance).run(ConstantSpeedPolicy(speed=3.0))
        assert result.record(0).completion == pytest.approx(2.0)

    def test_energy_accounting(self):
        # volume 6 at speed 3 for 2 time units: energy = 3^2 * 2 = 18.
        instance = _single(2.0, [Job(0, 0.0, (6.0,))])
        result = SpeedScalingEngine(instance).run(ConstantSpeedPolicy(speed=3.0))
        assert total_energy(result) == pytest.approx(18.0)
        assert result.extras["energy"] == pytest.approx(18.0)

    def test_energy_depends_on_alpha(self):
        instance = _single(3.0, [Job(0, 0.0, (6.0,))])
        result = SpeedScalingEngine(instance).run(ConstantSpeedPolicy(speed=3.0))
        assert total_energy(result) == pytest.approx(3.0**3 * 2.0)

    def test_weighted_flow_time(self):
        instance = _single(2.0, [Job(0, 1.0, (4.0,), weight=2.5)])
        result = SpeedScalingEngine(instance).run(ConstantSpeedPolicy(speed=2.0))
        assert total_weighted_flow_time(result) == pytest.approx(2.5 * 2.0)

    def test_queueing_is_non_preemptive(self):
        instance = _single(2.0, [Job(0, 0.0, (4.0,)), Job(1, 0.5, (1.0,))])
        result = SpeedScalingEngine(instance).run(ConstantSpeedPolicy(speed=1.0))
        assert result.record(1).start == pytest.approx(4.0)
        validate_result(result)

    def test_partial_energy_of_rejected_job_counts(self):
        instance = _single(2.0, [Job(0, 0.0, (10.0,)), Job(1, 3.0, (1.0,))])
        result = SpeedScalingEngine(instance).run(RejectRunningOnArrival())
        # Job 0 ran at speed 1 for 3 time units before being rejected.
        assert total_energy(result) == pytest.approx(3.0 + 1.0)
        assert result.record(0).rejected


class TestSpeedEngineErrors:
    def test_non_positive_speed_rejected(self):
        with pytest.raises(SimulationError):
            StartDecision(job_id=0, speed=0.0)

    def test_invalid_machine(self):
        class Bad(ConstantSpeedPolicy):
            def on_arrival(self, t, job, state):
                return ArrivalDecision.dispatch(5)

        instance = _single(2.0, [Job(0, 0.0, (1.0,))])
        with pytest.raises(SimulationError):
            SpeedScalingEngine(instance).run(Bad())

    def test_starting_non_pending_job(self):
        class Bad(ConstantSpeedPolicy):
            def select_next(self, t, machine, state):
                return StartDecision(job_id=42, speed=1.0)

        instance = _single(2.0, [Job(0, 0.0, (1.0,))])
        with pytest.raises(SimulationError):
            SpeedScalingEngine(instance).run(Bad())
