"""Tests for the chunked numpy-backed instance generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidInstanceError, InvalidParameterError
from repro.simulation.job import Job
from repro.utils.serialization import stable_hash
from repro.workloads.generators import (
    DEFAULT_CHUNK_SIZE,
    DeadlineInstanceGenerator,
    InstanceGenerator,
    JobChunk,
    WeightedInstanceGenerator,
)
from repro.workloads.traces import chunks_to_instance


def _hash(instance) -> str:
    return stable_hash(instance.to_dict())


def _chunked(generator, num_jobs: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """The instance of ``generator.iter_job_chunks(num_jobs, chunk_size)``."""
    return chunks_to_instance(
        generator.iter_job_chunks(num_jobs, chunk_size), machines=generator.machines()
    )


class TestChunkedInstances:
    def test_deterministic_for_fixed_seed(self):
        make = lambda: _chunked(InstanceGenerator(num_machines=4, seed=7), 2_000)
        assert _hash(make()) == _hash(make())

    def test_chunk_size_invariant(self):
        generator = InstanceGenerator(num_machines=4, seed=7)
        reference = _hash(_chunked(generator, 2_000))
        for chunk_size in (127, 500, 2_000, 10_000):
            assert _hash(_chunked(generator, 2_000, chunk_size=chunk_size)) == reference

    def test_instance_is_valid(self):
        instance = _chunked(InstanceGenerator(num_machines=3, seed=1), 1_500)
        assert instance.num_jobs == 1_500
        releases = [job.release for job in instance.jobs]
        assert releases == sorted(releases)
        assert all(all(p > 0 for p in job.sizes) for job in instance.jobs)
        assert sorted(job.id for job in instance.jobs) == list(range(1_500))

    @pytest.mark.parametrize("machine_model", ["identical", "related", "unrelated", "restricted"])
    def test_all_machine_models(self, machine_model):
        instance = _chunked(
            InstanceGenerator(num_machines=3, seed=5, machine_model=machine_model), 300
        )
        assert instance.num_jobs == 300
        if machine_model == "identical":
            assert all(len(set(job.sizes)) == 1 for job in instance.jobs)
        if machine_model == "restricted":
            assert all(job.eligible_machines() for job in instance.jobs)

    @pytest.mark.parametrize("arrival_process", ["poisson", "bursty", "batched", "deterministic"])
    def test_all_arrival_processes(self, arrival_process):
        instance = _chunked(
            InstanceGenerator(num_machines=2, seed=5, arrival_process=arrival_process), 300
        )
        releases = [job.release for job in instance.jobs]
        assert releases == sorted(releases)
        assert releases[0] >= 0

    def test_load_rescaling_applies(self):
        low = _chunked(InstanceGenerator(num_machines=2, seed=3, load=0.2), 500)
        high = _chunked(InstanceGenerator(num_machines=2, seed=3, load=2.0), 500)
        total = lambda inst: sum(job.min_size() for job in inst.jobs)
        assert total(high) > 5 * total(low)

    def test_weighted_generator_draws_weights(self):
        instance = _chunked(
            WeightedInstanceGenerator(num_machines=2, seed=9, weight_low=0.5, weight_high=4.0),
            400,
        )
        weights = [job.weight for job in instance.jobs]
        assert all(0.5 <= w <= 4.0 for w in weights)
        assert len(set(weights)) > 100  # actually random, not the default 1.0

    def test_deadline_generator_sets_feasible_deadlines(self):
        instance = _chunked(DeadlineInstanceGenerator(num_machines=2, seed=9), 200)
        assert instance.has_deadlines()
        assert all(job.deadline > job.release for job in instance.jobs)

    def test_invalid_arguments(self):
        generator = InstanceGenerator(num_machines=2, seed=1)
        with pytest.raises(InvalidParameterError):
            list(generator.iter_job_chunks(-1))
        with pytest.raises(InvalidParameterError):
            list(generator.iter_job_chunks(10, chunk_size=0))

    def test_zero_jobs(self):
        instance = _chunked(InstanceGenerator(num_machines=2, seed=1), 0)
        assert instance.num_jobs == 0


class TestIterJobChunks:
    def test_default_chunk_size_sane(self):
        assert DEFAULT_CHUNK_SIZE >= 1_024

    def test_chunk_boundaries_and_ids(self):
        generator = InstanceGenerator(num_machines=2, seed=11)
        chunks = list(generator.iter_job_chunks(1_000, chunk_size=300))
        assert [len(c) for c in chunks] == [300, 300, 300, 100]
        assert [c.start for c in chunks] == [0, 300, 600, 900]
        assert chunks[0].sizes.shape == (300, 2)

    def test_chunk_jobs_match_trusted_rows(self):
        generator = InstanceGenerator(num_machines=2, seed=11)
        (chunk,) = generator.iter_job_chunks(50, chunk_size=64)
        jobs = chunk.jobs()
        assert [j.id for j in jobs] == list(range(50))
        assert jobs[3].sizes == tuple(float(p) for p in chunk.sizes[3])

    def test_validate_rejects_bad_chunks(self):
        good = JobChunk(0, np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
        good.validate()
        with pytest.raises(InvalidInstanceError):
            JobChunk(0, np.array([1.0, 0.0]), np.array([[1.0], [2.0]])).validate()
        with pytest.raises(InvalidInstanceError):
            JobChunk(0, np.array([0.0, 1.0]), np.array([[1.0], [-2.0]])).validate()
        with pytest.raises(InvalidInstanceError):
            JobChunk(
                0, np.array([0.0]), np.array([[np.inf]])
            ).validate()  # no eligible machine
        with pytest.raises(InvalidInstanceError):
            JobChunk(
                0,
                np.array([0.0]),
                np.array([[1.0]]),
                deadlines=np.array([0.0]),
            ).validate()


class TestTrustedJobs:
    def test_trusted_equals_validated_construction(self):
        checked = Job(id=3, release=1.5, sizes=(2.0, 4.0), weight=2.0, deadline=9.0)
        trusted = Job.trusted(3, 1.5, (2.0, 4.0), 2.0, 9.0)
        assert checked == trusted
        assert trusted.size_on(1) == 4.0
        assert trusted.window() == pytest.approx(7.5)
