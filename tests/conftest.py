"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.workloads.generators import (
    DeadlineInstanceGenerator,
    InstanceGenerator,
    WeightedInstanceGenerator,
)


@contextmanager
def dispatch_mode(mode: "str | None"):
    """Run the block in engine dispatch mode ``mode``, picked the way a process
    picks it: through ``REPRO_DISPATCH`` (``None`` leaves the process's mode).
    Sessions, servers and CLI commands take no mode of their own; a plain
    context manager, unlike the ``monkeypatch`` fixture, also works inside
    hypothesis tests."""
    with pytest.MonkeyPatch.context() as patch:
        if mode is not None:
            patch.setenv("REPRO_DISPATCH", mode)
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for ad-hoc test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_instance() -> Instance:
    """Three jobs on two machines with hand-computable schedules."""
    jobs = [
        Job(0, release=0.0, sizes=(2.0, 4.0)),
        Job(1, release=0.0, sizes=(3.0, 1.0)),
        Job(2, release=1.0, sizes=(1.0, 2.0)),
    ]
    return Instance.build(2, jobs, name="tiny")


@pytest.fixture
def single_machine_instance() -> Instance:
    """Five jobs on one machine, staggered releases."""
    jobs = [
        Job(0, release=0.0, sizes=(4.0,)),
        Job(1, release=1.0, sizes=(2.0,)),
        Job(2, release=1.5, sizes=(1.0,)),
        Job(3, release=6.0, sizes=(3.0,)),
        Job(4, release=6.0, sizes=(0.5,)),
    ]
    return Instance.single_machine(jobs, name="single-five")


@pytest.fixture
def random_instance() -> Instance:
    """A reproducible 60-job random instance on 3 unrelated machines."""
    return InstanceGenerator(num_machines=3, seed=7).generate(60)


@pytest.fixture
def weighted_instance() -> Instance:
    """A reproducible weighted instance for the Section 3 algorithm (alpha=2.5)."""
    return WeightedInstanceGenerator(num_machines=2, alpha=2.5, seed=11).generate(40)


@pytest.fixture
def deadline_instance() -> Instance:
    """A reproducible deadline instance for the Section 4 algorithm (alpha=2)."""
    return DeadlineInstanceGenerator(num_machines=2, slack=4.0, alpha=2.0, seed=5).generate(15)


@pytest.fixture
def single_machine_deadline_instance() -> Instance:
    """A reproducible single-machine deadline instance (YDS applies)."""
    return DeadlineInstanceGenerator(num_machines=1, slack=3.0, alpha=2.0, seed=6).generate(10)


@pytest.fixture
def burst_instance() -> Instance:
    """Every job released at time 0 (stresses the queueing lower bounds)."""
    jobs = [Job(j, 0.0, (float(1 + (j % 4)), float(2 + (j % 3)))) for j in range(12)]
    return Instance.build(2, jobs, name="burst")


def make_jobs_identical(sizes, machines: int = 1, releases=None, weights=None, deadlines=None):
    """Helper used across tests: build identical-machine jobs from plain lists."""
    releases = releases if releases is not None else [0.0] * len(sizes)
    weights = weights if weights is not None else [1.0] * len(sizes)
    deadlines = deadlines if deadlines is not None else [None] * len(sizes)
    return [
        Job(
            id=j,
            release=float(releases[j]),
            sizes=tuple([float(sizes[j])] * machines),
            weight=float(weights[j]),
            deadline=deadlines[j],
        )
        for j in range(len(sizes))
    ]
