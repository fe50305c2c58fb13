"""Unit tests for :mod:`repro.simulation.metrics`."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.simulation.engine import ArrivalDecision, FlowTimeEngine, FlowTimePolicy
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.metrics import (
    flow_plus_energy,
    max_flow_time,
    rejected_count,
    rejected_fraction,
    rejected_weight,
    rejected_weight_fraction,
    summarize,
    total_energy,
    total_flow_time,
    total_weighted_flow_time,
)
from repro.simulation.schedule import ExecutionInterval, JobRecord, SimulationResult
from repro.simulation.speed_engine import SpeedScalingEngine


def _manual_result() -> SimulationResult:
    """Two completed jobs and one rejected job with easily checked numbers."""
    instance = Instance.build(
        Machine.fleet(2, alpha=2.0),
        [
            Job(0, 0.0, (2.0, 2.0), weight=1.0),
            Job(1, 1.0, (3.0, 3.0), weight=2.0),
            Job(2, 2.0, (4.0, 4.0), weight=4.0),
        ],
    )
    records = {
        0: JobRecord(0, 1.0, 0.0, 0, 0.0, 2.0, False),          # flow 2
        1: JobRecord(1, 2.0, 1.0, 1, 1.0, 4.0, False),          # flow 3
        2: JobRecord(2, 4.0, 2.0, 0, None, None, True, rejection_time=5.0),  # flow 3
    }
    intervals = [
        ExecutionInterval(0, 0, 0.0, 2.0, speed=1.0),
        ExecutionInterval(1, 1, 1.0, 4.0, speed=1.0),
    ]
    return SimulationResult(instance, records, intervals, algorithm="manual")


def _tiny_tail_result(rejected_head: bool) -> SimulationResult:
    """One job of weight and energy 1.0, then ten of 1e-16; the ten are rejected.

    Added left to right, each 1e-16 is under half an ulp of 1.0 and vanishes;
    Python 3.12's compensated ``sum()`` keeps them (1.000000000000001).
    """
    weights = [1.0] + [1e-16] * 10
    instance = Instance.build(
        Machine.fleet(1, alpha=2.0),
        [Job(j, 0.0, (1.0,), weight=w) for j, w in enumerate(weights)],
    )
    records = {
        j: JobRecord(j, w, 0.0, 0, 0.0, None, True, rejection_time=0.0)
        for j, w in enumerate(weights)
    }
    if not rejected_head:
        records[0] = JobRecord(0, 1.0, 0.0, 0, 0.0, 1.0, False)
    intervals = [
        ExecutionInterval(0, j, 0.0, w, speed=1.0, completed=j == 0 and not rejected_head)
        for j, w in enumerate(weights)
    ]
    return SimulationResult(instance, records, intervals, algorithm="tiny-tail")


class TestTotalsAreLeftToRight:
    """Outcome totals have the same bits on every Python version.

    These fail on Python 3.12 if a total uses ``sum()`` of floats.
    """

    def test_total_energy(self):
        assert total_energy(_tiny_tail_result(rejected_head=True)) == 1.0

    def test_rejected_weight(self):
        assert rejected_weight(_tiny_tail_result(rejected_head=True)) == 1.0

    def test_rejected_weight_fraction_divides_by_the_left_to_right_total(self):
        result = _tiny_tail_result(rejected_head=False)
        tail = 0.0
        for _ in range(10):
            tail += 1e-16
        assert rejected_weight(result) == tail
        assert rejected_weight_fraction(result) == tail  # the total weight is exactly 1.0

    def test_an_empty_energy_total_stays_an_int(self):
        # The parent's sum() gave the int 0, which canonical JSON writes "0".
        empty = SimulationResult(Instance.build(1, []), {}, [], algorithm="empty")
        assert summarize(empty).total_energy == 0 and type(total_energy(empty)) is int


class TestFlowMetrics:
    def test_total_flow_time_includes_rejected(self):
        assert total_flow_time(_manual_result()) == pytest.approx(2.0 + 3.0 + 3.0)

    def test_total_flow_time_excluding_rejected(self):
        assert total_flow_time(_manual_result(), include_rejected=False) == pytest.approx(5.0)

    def test_total_weighted_flow_time(self):
        assert total_weighted_flow_time(_manual_result()) == pytest.approx(
            1.0 * 2.0 + 2.0 * 3.0 + 4.0 * 3.0
        )

    def test_max_flow_time(self):
        assert max_flow_time(_manual_result()) == pytest.approx(3.0)


class TestEnergyMetrics:
    def test_total_energy_unit_speed(self):
        # Two intervals at speed 1 with alpha 2: energy equals busy time.
        assert total_energy(_manual_result()) == pytest.approx(2.0 + 3.0)

    def test_flow_plus_energy(self):
        result = _manual_result()
        assert flow_plus_energy(result) == pytest.approx(
            total_weighted_flow_time(result) + total_energy(result)
        )


class TestRejectionMetrics:
    def test_counts(self):
        result = _manual_result()
        assert rejected_count(result) == 1
        assert rejected_fraction(result) == pytest.approx(1.0 / 3.0)

    def test_weights(self):
        result = _manual_result()
        assert rejected_weight(result) == pytest.approx(4.0)
        assert rejected_weight_fraction(result) == pytest.approx(4.0 / 7.0)


class TestSummary:
    def test_summarize_consistency(self):
        result = _manual_result()
        summary = summarize(result)
        assert summary.total_flow_time == pytest.approx(total_flow_time(result))
        assert summary.rejected_count == 1
        assert summary.makespan == pytest.approx(4.0)
        assert summary.as_dict()["algorithm"] == "manual"

    def test_empty_result(self):
        instance = Instance.build(1, [])
        empty = SimulationResult(instance, {}, [], algorithm="empty")
        assert total_flow_time(empty) == 0.0
        assert rejected_fraction(empty) == 0.0


def _spec_summary(result: SimulationResult) -> dict:
    """Every summary field computed by the standalone metric functions (the spec)."""
    return {
        "algorithm": result.algorithm,
        "num_jobs": len(result.records),
        "num_machines": result.instance.num_machines,
        "total_flow_time": total_flow_time(result),
        "total_weighted_flow_time": total_weighted_flow_time(result),
        "total_energy": total_energy(result),
        "flow_plus_energy": flow_plus_energy(result),
        "rejected_count": rejected_count(result),
        "rejected_fraction": rejected_fraction(result),
        "rejected_weight_fraction": rejected_weight_fraction(result),
        "max_flow_time": max_flow_time(result),
        "makespan": result.makespan(),
    }


def assert_summary_is_the_spec(result: SimulationResult) -> None:
    """``summarize``'s one pass gives each field's bits and type."""
    got = summarize(result).as_dict()
    want = _spec_summary(result)
    assert list(got) == list(want)
    for name, value in want.items():
        assert type(got[name]) is type(value), name
        assert repr(got[name]) == repr(value), name


@st.composite
def _dense_instances(draw) -> Instance:
    """Small instances whose jobs arrive close together, so the rules reject."""
    num_machines = draw(st.integers(min_value=1, max_value=3))
    alpha = draw(st.sampled_from([1.5, 2.0, 3.0]))
    sizes = st.floats(min_value=0.1, max_value=20.0)
    jobs = [
        Job(
            job_id,
            draw(st.floats(min_value=0.0, max_value=5.0)),
            tuple(draw(sizes) for _ in range(num_machines)),
            weight=draw(st.floats(min_value=0.1, max_value=5.0)),
        )
        for job_id in range(draw(st.integers(min_value=1, max_value=14)))
    ]
    return Instance.build(Machine.fleet(num_machines, alpha=alpha), jobs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=_dense_instances(), epsilon=st.floats(min_value=0.3, max_value=0.95))
def test_summarize_equals_the_metric_functions(instance, epsilon):
    # Theorem 1: counted rejections at unit speed.
    assert_summary_is_the_spec(FlowTimeEngine(instance).run(RejectionFlowTimeScheduler(epsilon)))
    # Theorem 2: weighted rejections at non-unit speeds.
    assert_summary_is_the_spec(
        SpeedScalingEngine(instance).run(RejectionEnergyFlowScheduler(epsilon))
    )


def test_summarize_of_a_result_with_rejections_equals_the_metric_functions():
    assert_summary_is_the_spec(_manual_result())
    assert_summary_is_the_spec(_tiny_tail_result(rejected_head=False))


def test_summarize_of_an_empty_result_equals_the_metric_functions():
    empty = SimulationResult(Instance.build(2, []), {}, [], algorithm="empty")
    assert_summary_is_the_spec(empty)
