"""Tests for the dataset generators: published marginals, determinism,
validity."""

from collections import Counter

import pytest

from repro.core import InstanceStats
from repro.datasets import (
    available_datasets,
    bestbuy_like,
    make_dataset,
    private_like,
    private_like_category,
    private_like_short,
    synthetic,
    synthetic_k2,
)
from repro.datasets.composer import CategoryQuerySampler, draw_lengths, zipf_choice
from repro.exceptions import DatasetError

import random


class TestComposer:
    def test_zipf_prefers_head(self):
        rng = random.Random(1)
        draws = Counter(zipf_choice(rng, ["a", "b", "c", "d"], skew=1.0) for _ in range(2000))
        assert draws["a"] > draws["d"]

    def test_sample_query_exact_length(self):
        sampler = CategoryQuerySampler("fashion", random.Random(2))
        for length in (1, 2, 3, 4):
            assert len(sampler.sample_query(length)) == length

    def test_sample_query_rejects_bad_length(self):
        sampler = CategoryQuerySampler("fashion", random.Random(2))
        with pytest.raises(DatasetError):
            sampler.sample_query(0)
        with pytest.raises(DatasetError):
            sampler.sample_query(10_000)

    def test_unknown_category(self):
        with pytest.raises(DatasetError):
            CategoryQuerySampler("groceries", random.Random(0))

    def test_sample_distinct_unique(self):
        sampler = CategoryQuerySampler("electronics", random.Random(3), tail_size=100)
        queries = sampler.sample_distinct([2] * 200)
        assert len(set(queries)) == 200

    def test_length1_avoids_tail(self):
        sampler = CategoryQuerySampler("fashion", random.Random(4), tail_size=500, tail_weight=50.0)
        singles = [sampler.sample_query(1) for _ in range(100)]
        assert all("fashion-t" not in next(iter(q)) for q in singles)

    def test_draw_lengths_distribution(self):
        lengths = draw_lengths(random.Random(5), 4000, {1: 0.5, 2: 0.5})
        counts = Counter(lengths)
        assert set(counts) == {1, 2}
        assert abs(counts[1] / 4000 - 0.5) < 0.05


class TestBestBuy:
    def test_published_marginals(self):
        instance = bestbuy_like(1000, seed=0)
        stats = InstanceStats(instance, sample_costs=100)
        assert stats.n == 1000
        assert stats.max_query_length <= 4
        assert stats.short_fraction >= 0.9
        assert stats.max_cost == 1.0

    def test_uniform_costs(self):
        instance = bestbuy_like(100, seed=1)
        weights = {
            instance.weight(clf)
            for q in instance.queries
            for clf in instance.candidates(q)
        }
        assert weights == {1.0}

    def test_deterministic(self):
        assert list(bestbuy_like(200, seed=5).queries) == list(
            bestbuy_like(200, seed=5).queries
        )

    def test_seeds_differ(self):
        assert list(bestbuy_like(200, seed=5).queries) != list(
            bestbuy_like(200, seed=6).queries
        )

    def test_rejects_bad_n(self):
        with pytest.raises(DatasetError):
            bestbuy_like(0)


class TestPrivate:
    def test_published_marginals(self):
        instance = private_like(3000, seed=0)
        stats = InstanceStats(instance, sample_costs=100)
        assert stats.n == 3000
        assert 1 <= stats.max_query_length <= 6
        assert 0.7 <= stats.short_fraction <= 0.9  # paper: ~80% short
        assert stats.max_cost <= 63 and stats.min_cost >= 1

    def test_costs_are_integers_in_range(self):
        instance = private_like(500, seed=2)
        for q in list(instance.queries)[:50]:
            for clf in instance.candidates(q):
                weight = instance.weight(clf)
                assert 1 <= weight <= 63
                assert weight == int(weight)

    def test_deterministic(self):
        a = private_like(1000, seed=3)
        b = private_like(1000, seed=3)
        assert list(a.queries) == list(b.queries)
        clf = next(iter(a.candidates(a.queries[0])))
        assert a.weight(clf) == b.weight(clf)

    def test_fashion_slice_mostly_short(self):
        instance = private_like_category("fashion", 1000, seed=0)
        stats = InstanceStats(instance, sample_costs=50)
        assert stats.short_fraction >= 0.9

    def test_unknown_category(self):
        with pytest.raises(DatasetError):
            private_like_category("groceries", 100)

    def test_short_restriction(self):
        instance = private_like_short(1000, seed=0)
        assert all(len(q) <= 2 for q in instance.queries)

    def test_rejects_tiny_n(self):
        with pytest.raises(DatasetError):
            private_like(1)


class TestSynthetic:
    def test_length_distribution(self):
        instance = synthetic(4000, seed=0)
        counts = Counter(len(q) for q in instance.queries)
        assert min(counts) == 2
        assert max(counts) <= 10
        # P(len 2) = 1/2: generous tolerance for sampling noise.
        assert abs(counts[2] / 4000 - 0.5) < 0.06
        assert counts[2] > counts[3] > counts[4]

    def test_distinct_queries(self):
        instance = synthetic(3000, seed=1)
        assert instance.n == 3000

    def test_cost_range(self):
        instance = synthetic(100, seed=2)
        q = instance.queries[0]
        for clf in instance.candidates(q):
            assert 1 <= instance.weight(clf) <= 50

    def test_deterministic(self):
        assert list(synthetic(500, seed=4).queries) == list(
            synthetic(500, seed=4).queries
        )

    def test_k2_variant_all_pairs(self):
        instance = synthetic_k2(1000, seed=0)
        assert all(len(q) == 2 for q in instance.queries)

    def test_classifier_cap_respected(self):
        instance = synthetic(200, seed=0, max_classifier_length=3)
        q = max(instance.queries, key=len)
        assert all(len(c) <= 3 for c in instance.candidates(q))

    def test_rejects_bad_params(self):
        with pytest.raises(DatasetError):
            synthetic(0)
        with pytest.raises(DatasetError):
            synthetic(10, max_length=1)


class TestRegistry:
    def test_names(self):
        names = available_datasets()
        assert "bestbuy" in names and "synthetic" in names

    def test_make_dataset(self):
        instance = make_dataset("bestbuy", n=50, seed=1)
        assert instance.n == 50

    def test_unknown(self):
        with pytest.raises(DatasetError):
            make_dataset("nope")
