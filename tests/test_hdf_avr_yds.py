"""Tests for the preemptive references: HDF, AVR and YDS."""

import math

import pytest

from repro.baselines.avr import average_rate_energy, average_rate_schedule
from repro.baselines.hdf import HighestDensityFirstScheduler, NoRejectionEnergyFlowScheduler
from repro.baselines.yds import YDSBlock, YDSSchedule, yds_energy, yds_schedule
from repro.exceptions import InfeasibleInstanceError, InvalidParameterError
from repro.lowerbounds.energy_bounds import per_job_deadline_energy_lower_bound
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.metrics import flow_plus_energy
from repro.simulation.speed_engine import SpeedScalingEngine
from repro.workloads.generators import DeadlineInstanceGenerator, WeightedInstanceGenerator


class TestHDF:
    def test_single_job(self):
        instance = Instance.build(Machine.fleet(1, alpha=2.0), [Job(0, 0.0, (4.0,), weight=1.0)])
        result = HighestDensityFirstScheduler().run(instance)
        # Speed 1 (weight 1, alpha 2): flow 4, energy 4.
        assert result.weighted_flow_time == pytest.approx(4.0)
        assert result.energy == pytest.approx(4.0)
        assert result.completions[0] == pytest.approx(4.0)

    def test_all_jobs_complete(self, weighted_instance):
        result = HighestDensityFirstScheduler().run(weighted_instance)
        assert set(result.completions) == {job.id for job in weighted_instance.jobs}
        assert result.objective > 0

    def test_preemption_beats_non_preemptive_no_rejection(self):
        # A long job followed by many short ones: the preemptive reference
        # must not be worse than the non-preemptive no-rejection scheduler.
        jobs = [Job(0, 0.0, (40.0,), weight=1.0)]
        jobs += [Job(j, 1.0 + 0.1 * j, (1.0,), weight=2.0) for j in range(1, 15)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        hdf = HighestDensityFirstScheduler().run(instance).objective
        non_preemptive = flow_plus_energy(
            SpeedScalingEngine(instance).run(NoRejectionEnergyFlowScheduler())
        )
        assert hdf <= non_preemptive

    def test_requires_uniform_alpha(self):
        machines = (Machine(0, alpha=2.0), Machine(1, alpha=3.0))
        instance = Instance.build(machines, [Job(0, 0.0, (1.0, 1.0))])
        with pytest.raises(InvalidParameterError):
            HighestDensityFirstScheduler().run(instance)


#: 1.0, then ten 1e-16.  Added left to right each 1e-16 is under half an ulp
#: of 1.0 and vanishes; Python 3.12's compensated ``sum()`` keeps them
#: (1.000000000000001).
_TINY_TAIL = [1.0] + [1e-16] * 10


class TestHDFWeightTotalsAreLeftToRight:
    """HDF's pending-weight totals have the same bits on every Python version.

    These fail on Python 3.12 if a total uses ``sum()`` of floats.
    """

    def test_speed_flow_and_energy(self):
        # Every job has density 1, so job 0 runs first (lowest id), at speed
        # total ** (1/2): exactly 1.0 while the tail vanishes from the total.
        jobs = [Job(j, 0.0, (w,), weight=w) for j, w in enumerate(_TINY_TAIL)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        result = HighestDensityFirstScheduler().run(instance)
        assert result.completions[0] == 1.0
        assert result.weighted_flow_time == 1.0
        assert result.energy == 1.0

    def test_dispatch_backlog(self):
        # Machine 0 queues the tail, machine 1 one job of weight 1.0: their
        # backlogs tie at 1.0, so job 12, equally dense on both, joins
        # machine 0, the first of the tie.  A compensated total breaks the
        # tie toward machine 1, whose job 11 then runs faster and ends early.
        jobs = [Job(j, 0.0, (w, math.inf), weight=w) for j, w in enumerate(_TINY_TAIL)]
        jobs.append(Job(11, 0.0, (math.inf, 1.0), weight=1.0))
        jobs.append(Job(12, 0.0, (1.0, 1.0), weight=1e-3))
        instance = Instance.build(Machine.fleet(2, alpha=2.0), jobs)
        result = HighestDensityFirstScheduler().run(instance)
        assert result.completions[11] == pytest.approx(1.0, rel=1e-12)


class TestAVR:
    def test_single_job_energy(self):
        # Density p/(d-r) = 0.5 over 4 time units at alpha 2: energy = 0.25 * 4 = 1.
        jobs = [Job(0, 0.0, (2.0,), deadline=4.0)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        assert average_rate_energy(instance) == pytest.approx(1.0)

    def test_overlapping_jobs_pay_superadditive_power(self):
        jobs = [
            Job(0, 0.0, (2.0,), deadline=4.0),
            Job(1, 0.0, (2.0,), deadline=4.0),
        ]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        # Stacked densities: speed 1 over 4 units -> energy 4 > 2 * 1.
        assert average_rate_energy(instance) == pytest.approx(4.0)

    def test_multi_machine_dispatch_splits_load(self):
        jobs = [
            Job(0, 0.0, (2.0, 2.0), deadline=4.0),
            Job(1, 0.0, (2.0, 2.0), deadline=4.0),
        ]
        instance = Instance.build(Machine.fleet(2, alpha=2.0), jobs)
        schedule = average_rate_schedule(instance)
        assert schedule.assignment[0] != schedule.assignment[1]
        assert schedule.energy == pytest.approx(2.0)

    def test_requires_deadlines(self):
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        with pytest.raises(InfeasibleInstanceError):
            average_rate_schedule(instance)

    def test_above_certified_lower_bound(self, deadline_instance):
        assert average_rate_energy(deadline_instance) >= per_job_deadline_energy_lower_bound(
            deadline_instance
        ) - 1e-9


class TestAVRTotalsAreLeftToRight:
    """AVR's energy and stacked speeds have the same bits on every Python.

    These fail on Python 3.12 if a total uses ``sum()`` of floats.
    """

    def test_energy(self):
        # At alpha 1 a segment's energy is its speed times its length: job 0
        # runs at density 1.0 over [0, 1], job k at density 1e-16 over
        # [k, k + 1], so the segment energies are the tail.
        jobs = [Job(k, float(k), (w,), deadline=k + 1.0) for k, w in enumerate(_TINY_TAIL)]
        instance = Instance.build(Machine.fleet(1, alpha=1.0), jobs)
        assert average_rate_energy(instance) == 1.0

    def test_stacked_speed(self):
        # Every window is [0, 1]: the one segment's speed is the tail's total.
        jobs = [Job(k, 0.0, (w,), deadline=1.0) for k, w in enumerate(_TINY_TAIL)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        assert average_rate_energy(instance) == 1.0


class TestYDS:
    def test_single_job(self):
        jobs = [Job(0, 0.0, (2.0,), deadline=4.0)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        # Optimal: run at speed 0.5 over the whole window: energy 0.25*4 = 1.
        assert yds_energy(instance) == pytest.approx(1.0)

    def test_two_nested_jobs(self):
        # A tight inner job forces high speed inside its window only.
        jobs = [
            Job(0, 0.0, (8.0,), deadline=8.0),
            Job(1, 3.0, (2.0,), deadline=5.0),
        ]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        schedule = yds_schedule(instance=instance)
        assert schedule.energy > 0
        assert schedule.max_speed() >= 1.0
        # Block speeds are non-increasing in selection order (maximum intensity first).
        speeds = [block.speed for block in schedule.blocks]
        assert speeds == sorted(speeds, reverse=True)

    def test_below_avr(self, single_machine_deadline_instance):
        # YDS is the optimal preemptive schedule, AVR is merely 2^alpha-competitive.
        assert yds_energy(single_machine_deadline_instance) <= average_rate_energy(
            single_machine_deadline_instance
        ) + 1e-9

    def test_above_per_job_bound(self, single_machine_deadline_instance):
        assert yds_energy(single_machine_deadline_instance) >= per_job_deadline_energy_lower_bound(
            single_machine_deadline_instance
        ) - 1e-9

    def test_rejects_multi_machine_instances(self, deadline_instance):
        with pytest.raises(InvalidParameterError):
            yds_schedule(instance=deadline_instance)

    def test_explicit_jobs_interface(self):
        schedule = yds_schedule(jobs=[(0, 0.0, 2.0, 1.0), (1, 0.0, 2.0, 1.0)], alpha=2.0)
        assert schedule.energy == pytest.approx(2.0)

    def test_infeasible_window_rejected(self):
        with pytest.raises(InfeasibleInstanceError):
            yds_schedule(jobs=[(0, 5.0, 5.0, 1.0)], alpha=2.0)


class TestYDSTotalsAreLeftToRight:
    """YDS's energy and interval intensities have the same bits on every Python.

    These fail on Python 3.12 if a total uses ``sum()`` of floats.
    """

    def test_energy(self):
        # At alpha 1 a block's energy is its speed times its unit length.
        blocks = [YDSBlock(0.0, 1.0, w) for w in _TINY_TAIL]
        assert YDSSchedule(blocks, alpha=1.0).energy == 1.0

    def test_intensity(self):
        # Every window is [0, 1], so one block runs all jobs at their total
        # volume.
        jobs = [(k, 0.0, 1.0, w) for k, w in enumerate(_TINY_TAIL)]
        schedule = yds_schedule(jobs=jobs, alpha=2.0)
        assert [block.speed for block in schedule.blocks] == [1.0]
