"""Tests for arrival processes, size distributions, machine models and generators."""

import math

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.workloads.generators import (
    DeadlineInstanceGenerator,
    InstanceGenerator,
    WeightedInstanceGenerator,
)
from repro.workloads.machine_models import identical_matrix_array, unrelated_matrix_array
from repro.workloads.processing_times import (
    bimodal_sizes_array,
    bounded_pareto_sizes_array,
    exponential_sizes_array,
    uniform_sizes_array,
)
from repro.workloads.traces import chunks_to_instance

#: Both seedings of the one sampler, each drawing a whole instance.
DRAWS = {
    "generate": lambda generator, n: generator.generate(n),
    "iter_job_chunks": lambda generator, n: chunks_to_instance(
        generator.iter_job_chunks(n, chunk_size=16), machines=generator.machines()
    ),
}
draws = pytest.mark.parametrize("draw", list(DRAWS.values()), ids=list(DRAWS))


def _releases(draw, n: int, **kwargs) -> list[float]:
    return [job.release for job in draw(InstanceGenerator(num_machines=2, **kwargs), n).jobs]


class TestArrivalProcesses:
    @draws
    @pytest.mark.parametrize("process", ["poisson", "bursty", "batched", "deterministic"])
    def test_count_and_monotone(self, process, draw):
        times = _releases(draw, 60, arrival_process=process, arrival_rate=2.0, seed=2)
        assert len(times) == 60 and times[0] >= 0
        assert all(a <= b for a, b in zip(times, times[1:]))

    @draws
    @pytest.mark.parametrize("process", ["poisson", "bursty"])
    def test_rate_controls_density(self, process, draw):
        slow = _releases(draw, 200, arrival_process=process, arrival_rate=0.5, seed=1)[-1]
        fast = _releases(draw, 200, arrival_process=process, arrival_rate=5.0, seed=1)[-1]
        assert fast < slow

    @draws
    def test_bursty_quiet_gaps_follow_bursts_of_twenty(self, draw):
        times = _releases(draw, 60, arrival_process="bursty", arrival_rate=1.0, seed=2)
        gaps = np.diff(times)
        # Quiet gaps run at a quarter of the rate, in-burst gaps at ten times
        # it, so the two longest gaps are the two burst boundaries.
        assert sorted(np.argsort(gaps)[-2:] + 1) == [20, 40]

    @draws
    def test_batched_groups(self, draw):
        times = _releases(
            draw, 9, arrival_process="batched", batch_size=3, arrival_rate=0.2, seed=0
        )
        assert times == [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 10.0, 10.0, 10.0]

    @draws
    def test_deterministic_spacing(self, draw):
        times = _releases(draw, 3, arrival_process="deterministic", arrival_rate=0.5, seed=0)
        assert times == [0.0, 2.0, 4.0]

    @draws
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": 0.0},
            {"arrival_rate": -1.0},
            {"arrival_rate": math.inf},
            {"arrival_rate": math.nan},
            {"arrival_process": "batched", "batch_size": 0},
            {"load": 0.0, "machine_model": "related"},
            {"load": math.nan},
        ],
        ids=[
            "rate-zero", "rate-negative", "rate-inf", "rate-nan", "batch-size-zero",
            "load-zero", "load-nan",
        ],
    )
    def test_invalid_parameters_raise_at_construction(self, kwargs, draw):
        with pytest.raises(InvalidParameterError):
            draw(InstanceGenerator(num_machines=2, seed=1, **kwargs), 5)


class TestProcessingTimes:
    def test_uniform_range(self):
        sizes = uniform_sizes_array(100, low=2.0, high=3.0, seed=0)
        assert ((2.0 <= sizes) & (sizes <= 3.0)).all()

    def test_exponential_clipped(self):
        sizes = exponential_sizes_array(100, mean=1.0, minimum=0.5, seed=0)
        assert (sizes >= 0.5).all() and (sizes == 0.5).any()

    def test_pareto_bounded_and_heavy(self):
        sizes = bounded_pareto_sizes_array(2000, shape=1.5, low=1.0, high=100.0, seed=0)
        assert ((1.0 - 1e-9 <= sizes) & (sizes <= 100.0 + 1e-9)).all()
        assert sizes.max() > 20.0  # the tail is actually exercised

    def test_bimodal_values(self):
        sizes = bimodal_sizes_array(500, short=1.0, long=50.0, long_fraction=0.2, seed=0)
        assert set(sizes.tolist()) == {1.0, 50.0}
        assert 0.1 <= (sizes == 50.0).mean() <= 0.3

    def test_a_generator_stream_is_advanced_not_copied(self):
        rng = np.random.default_rng(4)
        first = uniform_sizes_array(3, seed=rng)
        second = uniform_sizes_array(3, seed=rng)
        assert np.array_equal(np.concatenate([first, second]), uniform_sizes_array(6, seed=4))

    @draws
    @pytest.mark.parametrize(
        ("distribution", "params", "key"),
        [
            ("uniform", {"bogus": 1}, "bogus"),
            ("pareto", {"mean": 5.0}, "mean"),
            ("uniform", {"high": math.inf}, "high"),
            ("uniform", {"low": math.nan}, "low"),
            ("pareto", {"high": 10**400}, "high"),
            ("exponential", {"mean": "5"}, "mean"),
            ("bimodal", {"short": None}, "short"),
            ("bimodal", {"long_fraction": True}, "long_fraction"),
        ],
        ids=[
            "unknown-key", "other-distributions-key", "inf", "nan", "int-past-float",
            "string", "none", "bool",
        ],
    )
    def test_invalid_size_params_raise_at_construction(self, distribution, params, key, draw):
        with pytest.raises(InvalidParameterError, match=repr(key)):
            generator = InstanceGenerator(
                num_machines=2, seed=1, size_distribution=distribution, size_params=params
            )
            draw(generator, 5)

    @draws
    def test_every_sampler_keyword_is_accepted(self, draw):
        for distribution, params in {
            "uniform": {"low": 1, "high": 3.0},
            "exponential": {"mean": 2.0, "minimum": 0.5},
            "pareto": {"shape": 1.2, "low": 1.0, "high": 50},
            "bimodal": {"short": 1.0, "long": 9.0, "long_fraction": 0.25},
        }.items():
            generator = InstanceGenerator(
                num_machines=2, seed=1, size_distribution=distribution, size_params=params
            )
            assert len(draw(generator, 20).jobs) == 20

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            uniform_sizes_array(5, low=0.0, high=1.0)
        with pytest.raises(InvalidParameterError):
            bounded_pareto_sizes_array(5, low=2.0, high=1.0)
        with pytest.raises(InvalidParameterError):
            bimodal_sizes_array(5, long_fraction=1.5)
        with pytest.raises(InvalidParameterError):
            exponential_sizes_array(-1)


class TestMachineModels:
    def test_identical(self):
        rows = identical_matrix_array([2.0, 3.0], num_machines=3)
        assert rows.tolist() == [[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]]

    @draws
    def test_related_has_unit_reference_and_fixed_speeds(self, draw):
        generator = InstanceGenerator(
            num_machines=3,
            machine_model="related",
            size_distribution="bimodal",
            size_params={"short": 4.0, "long_fraction": 0.0},
            load=None,
            seed=0,
        )
        rows = {job.sizes for job in draw(generator, 20).jobs}
        (row,) = rows  # every job sees the same speeds
        assert row[0] == 4.0 and all(1.0 <= 4.0 / p <= 4.0 for p in row)

    def test_unrelated_correlation_one_is_identical(self):
        rows = unrelated_matrix_array([2.0, 3.0], num_machines=3, correlation=1.0, seed=0)
        assert np.array_equal(rows, identical_matrix_array([2.0, 3.0], 3))

    @draws
    def test_generated_correlation_one_is_identical(self, draw):
        def jobs(**kwargs):
            generator = InstanceGenerator(num_machines=3, seed=8, **kwargs)
            return [(j.release, j.sizes) for j in draw(generator, 40).jobs]

        assert jobs(machine_model="unrelated", machine_correlation=1.0) == jobs(
            machine_model="identical"
        )

    def test_unrelated_entries_positive(self):
        rows = unrelated_matrix_array([2.0] * 50, num_machines=4, correlation=0.2, seed=1)
        assert (rows > 0).all() and len(np.unique(rows)) > 100

    @draws
    def test_restricted_has_at_least_one_eligible(self, draw):
        generator = InstanceGenerator(num_machines=4, machine_model="restricted", seed=3)
        rows = [job.sizes for job in draw(generator, 100).jobs]
        assert all(any(math.isfinite(p) for p in row) for row in rows)
        assert any(any(math.isinf(p) for p in row) for row in rows)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            unrelated_matrix_array([1.0], num_machines=0)
        with pytest.raises(InvalidParameterError):
            unrelated_matrix_array([1.0], num_machines=2, correlation=1.5)
        with pytest.raises(InvalidParameterError, match="base sizes must be positive, got 0.0"):
            identical_matrix_array([1.0, 0.0], num_machines=2)


class TestGenerators:
    def test_reproducible(self):
        a = InstanceGenerator(num_machines=2, seed=5).generate(30)
        b = InstanceGenerator(num_machines=2, seed=5).generate(30)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        a = InstanceGenerator(num_machines=2, seed=5).generate(30)
        b = InstanceGenerator(num_machines=2, seed=6).generate(30)
        assert a.to_dict() != b.to_dict()

    def test_job_count_and_machines(self):
        instance = InstanceGenerator(num_machines=3, seed=0).generate(25)
        assert instance.num_jobs == 25 and instance.num_machines == 3

    def test_load_rescaling(self):
        low = InstanceGenerator(num_machines=2, load=0.4, seed=1).generate(200)
        high = InstanceGenerator(num_machines=2, load=1.2, seed=1).generate(200)
        assert sum(j.min_size() for j in high.jobs) > sum(j.min_size() for j in low.jobs)

    def test_weighted_generator(self):
        instance = WeightedInstanceGenerator(
            num_machines=2, weight_low=1.0, weight_high=3.0, seed=2
        ).generate(40)
        assert all(1.0 <= job.weight <= 3.0 for job in instance.jobs)
        assert all(m.alpha == pytest.approx(2.5) for m in instance.machines)

    def test_deadline_generator_windows(self):
        instance = DeadlineInstanceGenerator(num_machines=2, slack=4.0, seed=3).generate(30)
        assert instance.has_deadlines()
        for job in instance.jobs:
            assert job.window() >= 1.99 * job.min_size()  # slack 4 with +-50% jitter

    def test_weights_and_deadlines_leave_the_base_draws_alone(self):
        # generate draws weights from seed + 1 and deadlines from seed + 2,
        # so arrivals and sizes are those of the unweighted generator.
        def base(cls, **kwargs):
            instance = cls(num_machines=3, size_distribution="uniform", seed=4, **kwargs)
            return [(j.id, j.release, j.sizes) for j in instance.generate(50).jobs]

        plain = base(InstanceGenerator)
        assert base(WeightedInstanceGenerator) == plain
        assert base(DeadlineInstanceGenerator) == plain

    def test_instance_names(self):
        plain = InstanceGenerator(num_machines=2, seed=1).generate(3)
        assert plain.name == "pareto-poisson-unrelated(m=2,n=3)"
        assert WeightedInstanceGenerator(num_machines=2, seed=1, name="w").generate(3).name == (
            "w+weights"
        )
        assert DeadlineInstanceGenerator(num_machines=2, seed=1).generate(3).name == (
            "uniform-poisson-unrelated(m=2,n=3)+deadlines"
        )

    def test_zero_jobs(self):
        instance = DeadlineInstanceGenerator(num_machines=2, seed=1).generate(0)
        assert instance.num_jobs == 0 and instance.num_machines == 2

    def test_deadline_generator_requires_slack(self):
        with pytest.raises(InvalidParameterError):
            DeadlineInstanceGenerator(slack=1.0).generate(5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"weight_low": 3.0, "weight_high": 1.0}, {"weight_low": 0.0}, {"weight_high": math.inf}],
    )
    def test_weighted_generator_requires_ordered_finite_positive_weights(self, kwargs):
        with pytest.raises(InvalidParameterError):
            WeightedInstanceGenerator(**kwargs)

    @pytest.mark.parametrize("slack_jitter", [-0.1, 1.0, 1.5])
    def test_deadline_generator_requires_jitter_below_one(self, slack_jitter):
        # A jitter of 1 or more would draw windows of zero or less.
        with pytest.raises(InvalidParameterError):
            DeadlineInstanceGenerator(slack_jitter=slack_jitter)

    def test_invalid_configuration(self):
        with pytest.raises(InvalidParameterError):
            InstanceGenerator(arrival_process="fractal")
        with pytest.raises(InvalidParameterError):
            InstanceGenerator(size_distribution="cauchy")
        with pytest.raises(InvalidParameterError):
            InstanceGenerator(machine_model="quantum")
        with pytest.raises(InvalidParameterError):
            InstanceGenerator(num_machines=2, seed=1).generate(-1)
