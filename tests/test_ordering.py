"""Unit tests for the precedence orders of Sections 2 and 3."""

import pytest

from repro.core.ordering import density_key, split_by_precedence, spt_key
from repro.simulation.job import Job


def _jobs():
    return [
        Job(0, release=0.0, sizes=(3.0, 1.0), weight=1.0),
        Job(1, release=1.0, sizes=(1.0, 2.0), weight=4.0),
        Job(2, release=0.5, sizes=(3.0, 3.0), weight=3.0),
        Job(3, release=2.0, sizes=(2.0, 4.0), weight=1.0),
    ]


def spt_order(jobs, machine):
    return sorted(jobs, key=lambda job: spt_key(job, machine))


def density_order(jobs, machine):
    return sorted(jobs, key=lambda job: density_key(job, machine))


class TestSPTOrder:
    def test_sorted_by_size_on_machine(self):
        ordered = spt_order(_jobs(), machine=0)
        # Sizes on machine 0: job1=1, job3=2, then the size-3 tie is broken by
        # release time (job0 released before job2).
        assert [job.id for job in ordered] == [1, 3, 0, 2]

    def test_machine_dependence(self):
        ordered = spt_order(_jobs(), machine=1)
        assert [job.id for job in ordered] == [0, 1, 2, 3]

    def test_tie_break_by_release(self):
        # Jobs 0 and 2 both have size 3 on machine 0: job 0 released earlier.
        ordered = spt_order(_jobs(), machine=0)
        assert ordered.index(_jobs()[2]) > 1

    def test_key_monotone_with_size(self):
        jobs = _jobs()
        assert spt_key(jobs[1], 0) < spt_key(jobs[0], 0)

    def test_split_of_a_job_outside_the_set(self):
        jobs = _jobs()
        new = Job(9, release=5.0, sizes=(2.5, 1.0))
        preceding, succeeding = split_by_precedence(new, jobs, machine=0)
        assert {job.id for job in preceding} == {1, 3}
        assert {job.id for job in succeeding} == {0, 2}


class TestDensityOrder:
    def test_sorted_by_density_descending(self):
        ordered = density_order(_jobs(), machine=0)
        densities = [job.density_on(0) for job in ordered]
        assert densities == sorted(densities, reverse=True)

    def test_highest_density_first(self):
        assert density_order(_jobs(), machine=0)[0].id == 1

    def test_key_consistency(self):
        jobs = _jobs()
        assert density_key(jobs[1], 0) < density_key(jobs[0], 0)


class TestSplitByPrecedence:
    def test_split_excludes_job_itself(self):
        jobs = _jobs()
        preceding, succeeding = split_by_precedence(jobs[0], jobs, machine=0)
        assert all(other.id != jobs[0].id for other in preceding + succeeding)

    def test_partition_is_complete(self):
        jobs = _jobs()
        preceding, succeeding = split_by_precedence(jobs[3], jobs, machine=0)
        assert len(preceding) + len(succeeding) == len(jobs) - 1

    def test_spt_semantics(self):
        jobs = _jobs()
        preceding, succeeding = split_by_precedence(jobs[3], jobs, machine=0)
        # On machine 0 job 3 has size 2; job 1 (size 1) precedes, jobs 0 and 2 (size 3) succeed.
        assert {job.id for job in preceding} == {1}
        assert {job.id for job in succeeding} == {0, 2}

    def test_weighted_semantics(self):
        jobs = _jobs()
        preceding, succeeding = split_by_precedence(jobs[3], jobs, machine=0, weighted=True)
        # Densities on machine 0: job1=4, job2=1, job0=1/3, job3=1/2.
        assert {job.id for job in preceding} == {1, 2}
        assert {job.id for job in succeeding} == {0}
