"""Tests for the combinatorial and LP flow-time lower bounds."""

import pytest

from repro.baselines.offline import brute_force_optimal_flow_time
from repro.exceptions import InvalidParameterError
from repro.lowerbounds.flow_combinatorial import (
    best_flow_time_lower_bound,
    busy_interval_lower_bound,
    total_processing_lower_bound,
)
from repro.lowerbounds.flow_lp import FlowTimeLPRelaxation, lp_flow_time_lower_bound
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.workloads.generators import InstanceGenerator


class TestCombinatorialBounds:
    def test_total_processing(self):
        jobs = [Job(0, 0.0, (3.0, 5.0)), Job(1, 0.0, (4.0, 2.0))]
        instance = Instance.build(2, jobs)
        assert total_processing_lower_bound(instance) == pytest.approx(5.0)

    def test_busy_interval_single_machine_burst(self):
        # Four unit jobs released together on one machine: optimum is 1+2+3+4.
        jobs = [Job(j, 0.0, (1.0,)) for j in range(4)]
        instance = Instance.build(1, jobs)
        assert busy_interval_lower_bound(instance) == pytest.approx(10.0)

    def test_busy_interval_beats_processing_bound_on_bursts(self, burst_instance):
        assert busy_interval_lower_bound(burst_instance) > total_processing_lower_bound(
            burst_instance
        )

    def test_busy_interval_certified_against_brute_force(self):
        for seed in range(5):
            instance = InstanceGenerator(
                num_machines=2, arrival_process="batched", batch_size=6, seed=seed
            ).generate(6)
            assert busy_interval_lower_bound(instance) <= brute_force_optimal_flow_time(
                instance
            ) + 1e-9

    def test_best_bound_takes_maximum(self, burst_instance):
        best = best_flow_time_lower_bound(burst_instance)
        assert best == pytest.approx(
            max(
                total_processing_lower_bound(burst_instance),
                busy_interval_lower_bound(burst_instance),
            )
        )


class TestBoundsAddLeftToRight:
    # Left to right, as ``sum`` adds on 3.10 and 3.11; 3.12's compensated
    # ``sum`` gives other bits, and E1's ``ratio_vs_lb`` divides by these.
    def test_total_processing(self):
        # 1.0, then ten of 1e-16: the total stays 1.0 (compensated:
        # 1.000000000000001).
        jobs = [Job(0, 0.0, (1.0,))] + [Job(k, 0.0, (1e-16,)) for k in range(1, 11)]
        assert total_processing_lower_bound(Instance.build(1, jobs)) == 1.0

    def test_busy_interval_batch(self):
        # One batch of three jobs released together on three machines:
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 (compensated: 0.6).
        jobs = [Job(k, 0.0, (size,) * 3) for k, size in enumerate((0.1, 0.2, 0.3))]
        assert busy_interval_lower_bound(Instance.build(3, jobs)) == 0.6000000000000001


class TestLPBound:
    def test_single_job_value(self):
        # One job of size 2 released at 0: LP objective = fractional flow (1 at
        # best) + processing time-ish; the certified bound is LP/2 <= OPT = 2.
        instance = Instance.build(1, [Job(0, 0.0, (2.0,))])
        bound = lp_flow_time_lower_bound(instance, slot_length=0.5)
        assert 0 < bound <= 2.0 + 1e-6

    def test_certified_against_brute_force(self):
        for seed in range(4):
            instance = InstanceGenerator(num_machines=2, seed=seed).generate(5)
            optimum = brute_force_optimal_flow_time(instance)
            bound = lp_flow_time_lower_bound(instance, slot_length=0.5)
            assert bound <= optimum + 1e-6

    def test_tighter_than_processing_bound_under_contention(self):
        jobs = [Job(j, 0.0, (2.0,)) for j in range(6)]
        instance = Instance.build(1, jobs)
        assert lp_flow_time_lower_bound(instance, slot_length=0.5) > total_processing_lower_bound(
            instance
        )

    def test_rejects_augmented_machines(self, random_instance):
        augmented = random_instance.with_speed_factor(2.0)
        with pytest.raises(InvalidParameterError):
            FlowTimeLPRelaxation(augmented)

    def test_empty_instance(self):
        assert FlowTimeLPRelaxation(Instance.build(1, [])).solve() == 0.0

    def test_include_lp_in_best_bound(self):
        jobs = [Job(j, 0.0, (2.0,)) for j in range(5)]
        instance = Instance.build(1, jobs)
        with_lp = best_flow_time_lower_bound(instance, include_lp=True)
        without_lp = best_flow_time_lower_bound(instance, include_lp=False)
        assert with_lp >= without_lp - 1e-9
