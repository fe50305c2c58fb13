"""Unit tests for :mod:`repro.simulation.instance`."""

import math

import pytest

from repro.exceptions import InvalidInstanceError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine


def _jobs():
    return [
        Job(0, 0.0, (2.0, 4.0)),
        Job(1, 1.0, (3.0, 1.0)),
        Job(2, 2.0, (1.0, 2.0)),
    ]


class TestInstanceValidation:
    def test_valid(self):
        inst = Instance.build(2, _jobs())
        assert inst.num_jobs == 3 and inst.num_machines == 2

    def test_empty_machines_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance(machines=(), jobs=())

    def test_wrong_machine_ids_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance(machines=(Machine(1),), jobs=())

    def test_size_vector_mismatch_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.build(3, _jobs())

    def test_duplicate_job_id_rejected(self):
        jobs = [Job(0, 0.0, (1.0,)), Job(0, 1.0, (1.0,))]
        with pytest.raises(InvalidInstanceError):
            Instance(machines=(Machine(0),), jobs=tuple(jobs))

    def test_unsorted_releases_rejected(self):
        jobs = (Job(0, 5.0, (1.0,)), Job(1, 1.0, (1.0,)))
        with pytest.raises(InvalidInstanceError):
            Instance(machines=(Machine(0),), jobs=jobs)

    def test_build_sorts_by_release(self):
        jobs = [Job(0, 5.0, (1.0,)), Job(1, 1.0, (1.0,))]
        inst = Instance.build(1, jobs)
        assert [job.id for job in inst.jobs] == [1, 0]


class TestInstanceStatistics:
    def test_delta(self):
        inst = Instance.build(2, _jobs())
        assert inst.delta() == pytest.approx(4.0)

    def test_delta_ignores_infinite(self):
        jobs = [Job(0, 0.0, (1.0, math.inf)), Job(1, 0.0, (2.0, 2.0))]
        assert Instance.build(2, jobs).delta() == pytest.approx(2.0)

    def test_stats_fields(self):
        stats = Instance.build(2, _jobs()).stats()
        assert stats.num_jobs == 3
        assert stats.total_min_size == pytest.approx(2.0 + 1.0 + 1.0)
        assert stats.max_release == pytest.approx(2.0)
        assert not stats.has_deadlines

    def test_total_weight(self):
        jobs = [Job(0, 0.0, (1.0,), weight=2.0), Job(1, 0.0, (1.0,), weight=3.0)]
        assert Instance.build(1, jobs).total_weight == pytest.approx(5.0)

    def test_horizon_accommodates_all_jobs(self):
        inst = Instance.build(2, _jobs())
        assert inst.horizon() >= 2.0 + 4.0  # last release + worst size of one job

    def test_has_deadlines(self):
        jobs = [Job(0, 0.0, (1.0,), deadline=2.0)]
        assert Instance.build(1, jobs).has_deadlines()
        assert not Instance.build(2, _jobs()).has_deadlines()


#: 1.0, then ten 1e-16.  Added left to right each 1e-16 is under half an ulp
#: of 1.0 and vanishes; Python 3.12's compensated ``sum()`` keeps them
#: (1.000000000000001).
_TINY_TAIL = [1.0] + [1e-16] * 10


def _tail_sized_jobs() -> list[Job]:
    """Jobs whose only finite size (so both their least and worst) is the tail."""
    return [Job(j, 0.0, (p, math.inf)) for j, p in enumerate(_TINY_TAIL)]


class TestTotalsAreLeftToRight:
    """Instance totals have the same bits on every Python version.

    These fail on Python 3.12 if a total uses ``sum()`` of floats.
    """

    def test_total_weight(self):
        jobs = [Job(j, 0.0, (1.0,), weight=w) for j, w in enumerate(_TINY_TAIL)]
        assert Instance.build(1, jobs).total_weight == 1.0

    def test_stats_total_min_size(self):
        stats = Instance.build(2, _tail_sized_jobs()).stats()
        assert stats.total_min_size == 1.0
        assert stats.makespan_lower_bound == 0.5

    def test_horizon_total_of_worst_sizes(self):
        # Every release is 0, so the horizon is the total of worst finite sizes.
        assert Instance.build(2, _tail_sized_jobs()).horizon() == 1.0


class TestInstanceTransformations:
    def test_with_speed_factor(self):
        inst = Instance.build(2, _jobs()).with_speed_factor(2.0)
        assert all(m.speed_factor == pytest.approx(2.0) for m in inst.machines)

    def test_with_alpha(self):
        inst = Instance.build(2, _jobs()).with_alpha(2.0)
        assert all(m.alpha == 2.0 for m in inst.machines)

    def test_with_machines_count_mismatch(self):
        inst = Instance.build(2, _jobs())
        with pytest.raises(InvalidInstanceError):
            inst.with_machines(Machine.fleet(3))

    def test_restrict_jobs(self):
        inst = Instance.build(2, _jobs()).restrict_jobs(lambda job: job.release > 0)
        assert inst.num_jobs == 2

    def test_prefix(self):
        assert Instance.build(2, _jobs()).prefix(2).num_jobs == 2

    def test_job_by_id(self):
        inst = Instance.build(2, _jobs())
        assert inst.job_by_id(1).release == pytest.approx(1.0)
        with pytest.raises(KeyError):
            inst.job_by_id(99)


class TestInstanceSerialisation:
    def test_json_roundtrip(self):
        inst = Instance.build(2, _jobs(), name="roundtrip")
        restored = Instance.from_json(inst.to_json())
        assert restored.name == "roundtrip"
        assert restored.jobs == inst.jobs
        assert restored.machines == inst.machines

    def test_single_machine_constructor(self):
        inst = Instance.single_machine([Job(0, 0.0, (1.0,))], alpha=2.0)
        assert inst.num_machines == 1
        assert inst.machines[0].alpha == 2.0
