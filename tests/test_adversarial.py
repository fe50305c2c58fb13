"""Tests for the adversarial constructions (Lemma 1, Lemma 2, overload bursts)."""

import pytest

from repro.core.energy_min import ConfigLPEnergyScheduler
from repro.exceptions import InvalidParameterError
from repro.workloads.adversarial import (
    Lemma2Adversary,
    lemma1_instance,
    overload_burst_instance,
)


class TestLemma1Instance:
    def test_structure(self):
        instance = lemma1_instance(length=8.0, epsilon=0.25)
        assert instance.num_machines == 1
        long_jobs = [job for job in instance.jobs if job.sizes[0] == 8.0]
        short_jobs = [job for job in instance.jobs if job.sizes[0] == pytest.approx(1.0 / 8.0)]
        assert len(long_jobs) == 4  # ceil(1/0.25)
        assert len(short_jobs) == 64  # L^2

    def test_delta_is_length_squared(self):
        instance = lemma1_instance(length=10.0, epsilon=0.5)
        assert instance.delta() == pytest.approx(100.0)

    def test_long_jobs_released_first(self):
        instance = lemma1_instance(length=4.0, epsilon=0.5)
        assert all(job.release == 0.0 for job in instance.jobs if job.sizes[0] == 4.0)
        shorts = [job for job in instance.jobs if job.sizes[0] < 1.0]
        assert all(job.release > 0.0 for job in shorts)

    def test_small_multiplier_scales_short_jobs(self):
        base = lemma1_instance(length=8.0, epsilon=0.5)
        doubled = lemma1_instance(length=8.0, epsilon=0.5, small_multiplier=2.0)
        assert doubled.num_jobs > base.num_jobs

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            lemma1_instance(length=1.0, epsilon=0.5)
        with pytest.raises(InvalidParameterError):
            lemma1_instance(length=4.0, epsilon=0.0)


class TestOverloadBurst:
    def test_structure(self):
        instance = overload_burst_instance(2, burst_jobs=3, trailing_shorts=50)
        assert instance.num_jobs == 2 * 3 + 50
        assert instance.num_machines == 2

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            overload_burst_instance(0, burst_jobs=1)


class TestLemma2Adversary:
    def test_game_produces_nested_windows(self):
        outcome = Lemma2Adversary(alpha=3.0).play()
        assert 1 <= len(outcome.rounds) <= 3
        for earlier, later in zip(outcome.rounds, outcome.rounds[1:]):
            assert later.job.release >= earlier.start_time + 1.0 - 1e-9
            assert later.job.deadline <= earlier.completion_time + 1e-9

    def test_adversary_energy_is_total_volume(self):
        outcome = Lemma2Adversary(alpha=3.0).play()
        assert outcome.adversary_energy == pytest.approx(
            sum(r.job.sizes[0] for r in outcome.rounds)
        )

    def test_ratio_grows_with_alpha(self):
        small = Lemma2Adversary(alpha=2.0).play().ratio
        large = Lemma2Adversary(alpha=4.0).play().ratio
        assert large > small

    def test_ratio_within_theorem3_bound(self):
        for alpha in (2.0, 3.0, 4.0):
            outcome = Lemma2Adversary(alpha=alpha).play()
            assert outcome.ratio <= alpha**alpha + 1e-6

    def test_paper_lower_bound_field(self):
        outcome = Lemma2Adversary(alpha=4.0).play()
        assert outcome.paper_lower_bound == pytest.approx((4.0 / 9.0) ** 4.0)

    def test_custom_scheduler(self):
        outcome = Lemma2Adversary(alpha=3.0).play(ConfigLPEnergyScheduler(slot_length=1.0))
        assert outcome.algorithm_energy > 0

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            Lemma2Adversary(alpha=1.5)
