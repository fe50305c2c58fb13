"""Trusted builders against the checked constructors they skip.

``trusted_builder`` writes a frozen slots dataclass's fields through its
member descriptors.  The fused engine path builds its records, decisions and
rule events that way; the reference stepper keeps the checked constructors,
which stay the spec.  A trusted instance must be indistinguishable from the
checked one, and ``ExecutionInterval.trusted`` must still refuse what the
checked constructor refuses.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.flow_time import Rule1Event, Rule2Event
from repro.exceptions import SimulationError
from repro.simulation.decisions import ArrivalDecision, Rejection
from repro.simulation.job import Job, trusted_builder
from repro.simulation.schedule import ExecutionInterval, JobRecord

ids = st.integers(min_value=0, max_value=2**40)
machines = st.integers(min_value=0, max_value=64)
times = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, exclude_min=True)
any_float = st.floats(allow_nan=False)
reasons = st.sampled_from(["immediate", "rule1", "rule2", "weighted-rule", "policy"])
rejections = st.builds(Rejection, ids, reasons)


def assert_indistinguishable(trusted, checked) -> None:
    assert type(trusted) is type(checked)
    assert trusted == checked
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    assert dataclasses.astuple(trusted) == dataclasses.astuple(checked)
    for field in dataclasses.fields(checked):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trusted, field.name, getattr(checked, field.name))


@given(
    job_id=ids,
    release=times,
    sizes=st.lists(positive | st.just(math.inf), min_size=1, max_size=4),
    weight=positive,
    window=st.none() | positive,
)
def test_job(job_id, release, sizes, weight, window):
    assume(any(math.isfinite(p) for p in sizes))
    deadline = None if window is None else release + window
    assume(deadline is None or deadline > release)
    values = (job_id, release, tuple(sizes), weight, deadline)
    assert_indistinguishable(Job.trusted(*values), Job(*values))


@given(
    job_id=ids,
    weight=positive,
    release=times,
    machine=st.none() | machines,
    start=st.none() | times,
    completion=st.none() | times,
    rejected=st.booleans(),
    rejection_time=st.none() | times,
    rejection_reason=st.none() | reasons,
)
def test_job_record(
    job_id, weight, release, machine, start, completion, rejected, rejection_time,
    rejection_reason,
):
    values = (
        job_id, weight, release, machine, start, completion, rejected, rejection_time,
        rejection_reason,
    )
    assert_indistinguishable(JobRecord.trusted(*values), JobRecord(*values))


@given(
    machine=machines, job_id=ids, start=any_float, end=any_float, speed=any_float,
    completed=st.booleans(),
)
def test_execution_interval(machine, job_id, start, end, speed, completed):
    values = (machine, job_id, start, end, speed, completed)
    try:
        checked = ExecutionInterval(*values)
    except SimulationError as refused:
        with pytest.raises(SimulationError) as caught:
            ExecutionInterval.trusted(*values)
        assert str(caught.value) == str(refused)
    else:
        assert_indistinguishable(ExecutionInterval.trusted(*values), checked)


@pytest.mark.parametrize(
    "start, end, speed, message",
    [
        (2.0, 1.0, 1.0, "ends before it starts"),
        (0.0, 1.0, 0.0, "speed must be positive"),
        (0.0, 1.0, -2.0, "speed must be positive"),
    ],
)
def test_execution_interval_keeps_its_checks(start, end, speed, message):
    with pytest.raises(SimulationError, match=message):
        ExecutionInterval.trusted(0, 7, start, end, speed, True)


@given(machine=machines, picked=st.lists(rejections, max_size=3))
def test_arrival_decision(machine, picked):
    assert_indistinguishable(
        ArrivalDecision.dispatch(machine, picked), ArrivalDecision(machine, tuple(picked))
    )
    assert_indistinguishable(ArrivalDecision.reject(picked), ArrivalDecision(None, tuple(picked)))
    assert_indistinguishable(ArrivalDecision.dispatch(machine), ArrivalDecision(machine))


@given(job_id=ids, reason=reasons)
def test_rejection(job_id, reason):
    assert_indistinguishable(trusted_builder(Rejection)(job_id, reason), Rejection(job_id, reason))


@pytest.mark.parametrize("cls", [Rule1Event, Rule2Event])
@given(machine=machines, time=times, job_id=ids, amount=times)
def test_rule_events(cls, machine, time, job_id, amount):
    values = (machine, time, job_id, amount)
    assert_indistinguishable(trusted_builder(cls)(*values), cls(*values))


def test_defaults_are_the_constructor_defaults():
    assert_indistinguishable(Job.trusted(3, 1.5, (2.0,)), Job(3, 1.5, (2.0,)))
    assert_indistinguishable(trusted_builder(Rejection)(4), Rejection(4))
