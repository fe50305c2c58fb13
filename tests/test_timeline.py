"""Unit tests for the discrete timeline of the Section 4 model."""

import math

import pytest

from repro.exceptions import InfeasibleInstanceError, InvalidParameterError, SimulationError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.timeline import DiscreteTimeline, Strategy


class TestConstruction:
    def test_basic(self):
        timeline = DiscreteTimeline(num_machines=2, num_slots=10, alpha=2.0)
        assert timeline.total_energy() == 0.0

    def test_per_machine_alphas(self):
        timeline = DiscreteTimeline(num_machines=2, num_slots=4, alpha=[2.0, 3.0])
        timeline.commit(Strategy(job_id=0, machine=0, start_slot=0, speed=2.0, slots=1))
        timeline.commit(Strategy(job_id=1, machine=1, start_slot=0, speed=2.0, slots=1))
        assert timeline.machine_energy(0) == pytest.approx(4.0)
        assert timeline.machine_energy(1) == pytest.approx(8.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            DiscreteTimeline(num_machines=0, num_slots=5)
        with pytest.raises(InvalidParameterError):
            DiscreteTimeline(num_machines=1, num_slots=0)
        with pytest.raises(InvalidParameterError):
            DiscreteTimeline(num_machines=1, num_slots=5, slot_length=0.0)
        with pytest.raises(InvalidParameterError):
            DiscreteTimeline(num_machines=2, num_slots=5, alpha=[2.0])

    def test_custom_power_function(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=3, power=lambda s: 5.0 * s)
        timeline.commit(Strategy(job_id=0, machine=0, start_slot=0, speed=2.0, slots=2))
        assert timeline.total_energy() == pytest.approx(20.0)


class TestMarginalEnergy:
    def test_on_empty_profile(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=10, alpha=2.0)
        assert timeline.marginal_energy(0, 0, 3, 2.0) == pytest.approx(3 * 4.0)

    def test_is_superadditive_on_loaded_slots(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=10, alpha=2.0)
        timeline.commit(Strategy(job_id=0, machine=0, start_slot=0, speed=1.0, slots=10))
        # Adding speed 1 on top of speed 1 costs (2^2 - 1^2) = 3 per slot > 1.
        assert timeline.marginal_energy(0, 0, 1, 1.0) == pytest.approx(3.0)

    def test_commit_returns_marginal_and_updates(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=5, alpha=2.0)
        delta = timeline.commit(Strategy(job_id=0, machine=0, start_slot=1, speed=2.0, slots=2))
        assert delta == pytest.approx(8.0)
        assert timeline.total_energy() == pytest.approx(8.0)
        assert timeline.speed_at(0, 1) == pytest.approx(2.0)
        assert timeline.speed_at(0, 0) == 0.0

    def test_out_of_horizon_rejected(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=5, alpha=2.0)
        with pytest.raises(SimulationError):
            timeline.marginal_energy(0, 4, 3, 1.0)

    def test_slot_length_scales_energy(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=4, slot_length=0.5, alpha=2.0)
        timeline.commit(Strategy(job_id=0, machine=0, start_slot=0, speed=2.0, slots=2))
        assert timeline.total_energy() == pytest.approx(4.0 * 2 * 0.5)


class TestFeasibleStrategies:
    def test_strategies_fit_window(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=20, alpha=2.0)
        job = Job(0, release=2.0, sizes=(4.0,), deadline=10.0)
        strategies = timeline.feasible_strategies(job, 0, speed_grid=[1.0, 2.0])
        assert strategies
        for strategy in strategies:
            assert strategy.start_slot >= 2
            assert strategy.end_slot <= 10
            assert strategy.speed * strategy.slots >= 4.0 - 1e-9

    def test_no_deadline_raises(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=20, alpha=2.0)
        with pytest.raises(InfeasibleInstanceError):
            timeline.feasible_strategies(Job(0, 0.0, (1.0,)), 0, speed_grid=[1.0])

    def test_forbidden_machine_gives_nothing(self):
        timeline = DiscreteTimeline(num_machines=2, num_slots=20, alpha=2.0)
        job = Job(0, 0.0, (math.inf, 1.0), deadline=5.0)
        assert timeline.feasible_strategies(job, 0, speed_grid=[1.0]) == []

    def test_too_slow_speed_excluded(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=20, alpha=2.0)
        job = Job(0, 0.0, (8.0,), deadline=4.0)
        # Speed 1 would need 8 slots but the window has only 4.
        strategies = timeline.feasible_strategies(job, 0, speed_grid=[1.0, 2.0])
        assert strategies and all(s.speed == 2.0 for s in strategies)

    def test_for_instance_sizes_horizon(self):
        jobs = [Job(0, 0.0, (2.0,), deadline=6.0), Job(1, 1.0, (2.0,), deadline=12.0)]
        instance = Instance.build(Machine.fleet(1, alpha=2.0), jobs)
        timeline = DiscreteTimeline.for_instance(instance, slot_length=1.0)
        assert timeline.num_slots == 12

    def test_slot_time_roundtrip(self):
        timeline = DiscreteTimeline(num_machines=1, num_slots=10, slot_length=0.5, alpha=2.0)
        assert timeline.slot_of(2.4) == 4
        assert timeline.time_of(4) == pytest.approx(2.0)


def test_total_energy_adds_left_to_right():
    # Machine energies 1.0, then ten of 1e-16: left to right, as ``sum``
    # adds on 3.10 and 3.11, the total stays 1.0; 3.12's compensated
    # ``sum`` gives 1.000000000000001.
    class Tail(DiscreteTimeline):
        def __init__(self):
            self.num_machines = 11

        def machine_energy(self, machine):
            return 1.0 if machine == 0 else 1e-16

    assert math.fsum(Tail().machine_energy(i) for i in range(11)) != 1.0
    assert Tail().total_energy() == 1.0
