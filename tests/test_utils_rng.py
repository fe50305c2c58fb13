"""Unit tests for :mod:`repro.utils.rng`."""

import numpy as np

from repro.utils.rng import make_rng, seeds_for


class TestMakeRng:
    def test_seed_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSeedsFor:
    def test_deterministic(self):
        assert seeds_for(1, ["a", "b"]) == seeds_for(1, ["a", "b"])

    def test_label_order_independent(self):
        forward = seeds_for(1, ["a", "b"])
        backward = seeds_for(1, ["b", "a"])
        assert forward["a"] == backward["a"]

    def test_distinct_labels_distinct_seeds(self):
        seeds = seeds_for(1, ["a", "b", "c"])
        assert len(set(seeds.values())) == 3
