"""Tests for the SRPT relaxations."""

import pytest

from repro.baselines.srpt import srpt_single_machine_flow_time, srpt_unrelated_lower_bound
from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.job import Job


class TestSingleMachineSRPT:
    def test_single_job(self):
        assert srpt_single_machine_flow_time([(0.0, 5.0)]) == pytest.approx(5.0)

    def test_two_jobs_shortest_first(self):
        # Released together: SRPT runs the short one first: flows 1 and 4.
        assert srpt_single_machine_flow_time([(0.0, 3.0), (0.0, 1.0)]) == pytest.approx(5.0)

    def test_preemption_helps(self):
        # A long job starts, a short job arrives and preempts it.
        # flows: short = 1, long = 10 + 1 = 11.
        value = srpt_single_machine_flow_time([(0.0, 10.0), (2.0, 1.0)])
        assert value == pytest.approx(11.0 + 1.0)

    def test_idle_period_handled(self):
        value = srpt_single_machine_flow_time([(0.0, 1.0), (10.0, 1.0)])
        assert value == pytest.approx(2.0)

    def test_speed_scales_flow(self):
        slow = srpt_single_machine_flow_time([(0.0, 4.0)], speed=1.0)
        fast = srpt_single_machine_flow_time([(0.0, 4.0)], speed=2.0)
        assert fast == pytest.approx(slow / 2.0)

    def test_matches_optimal_on_simultaneous_release(self):
        # For jobs released together SRPT = SPT and the optimum is the
        # well-known sum of (n - i) * p_(i).
        sizes = [3.0, 1.0, 2.0]
        expected = 1.0 * 3 + 2.0 * 2 + 3.0 * 1
        assert srpt_single_machine_flow_time([(0.0, p) for p in sizes]) == pytest.approx(expected)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            srpt_single_machine_flow_time([(0.0, 0.0)])
        with pytest.raises(InvalidParameterError):
            srpt_single_machine_flow_time([(0.0, 1.0)], speed=0.0)


class TestUnrelatedRelaxations:
    def test_pooled_reference_positive(self, random_instance):
        assert srpt_unrelated_lower_bound(random_instance) > 0

    def test_pooled_reference_below_single_machine_equivalent(self):
        # Pooling machines can only reduce the SRPT value.
        jobs = [Job(j, 0.0, (2.0, 2.0)) for j in range(6)]
        instance = Instance.build(2, jobs)
        pooled = srpt_unrelated_lower_bound(instance)
        single = srpt_single_machine_flow_time([(0.0, 2.0)] * 6, speed=1.0)
        assert pooled < single

    def test_empty_instance(self):
        assert srpt_unrelated_lower_bound(Instance.build(2, [])) == 0.0
