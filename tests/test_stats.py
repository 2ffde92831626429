"""Tests for instance statistics (backs Table 1)."""

import pytest

from repro.core import InstanceStats, MC3Instance, UniformCost


@pytest.fixture
def instance():
    return MC3Instance(
        ["a b", "b c d", "e", "a b"],
        {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "a b": 6, "b c": 1,
         "c d": 1, "b d": 1, "b c d": 9},
        name="stats-test",
    )


class TestInstanceStats:
    def test_counts(self, instance):
        stats = InstanceStats(instance)
        assert stats.n == 3  # duplicate "a b" collapsed
        assert stats.num_properties == 5
        assert stats.max_query_length == 3

    def test_length_histogram(self, instance):
        stats = InstanceStats(instance)
        assert stats.length_histogram == {1: 1, 2: 1, 3: 1}

    def test_short_fraction(self, instance):
        stats = InstanceStats(instance)
        assert stats.short_fraction == pytest.approx(2 / 3)

    def test_cost_extremes(self, instance):
        stats = InstanceStats(instance)
        assert stats.max_cost == 9.0
        assert stats.min_cost == 1.0

    def test_incidence(self, instance):
        stats = InstanceStats(instance)
        assert stats.incidence == 2  # property b appears in two queries

    def test_as_row(self, instance):
        row = InstanceStats(instance).as_row()
        assert row == {
            "dataset": "stats-test",
            "queries": 3,
            "max_cost": 9.0,
            "max_length": 3,
        }

    def test_describe_renders_every_length(self, instance):
        text = InstanceStats(instance).describe()
        assert "stats-test" in text
        assert "len  1" in text and "len  3" in text
        assert "incidence" in text

    def test_sampling_cap_respected(self):
        instance = MC3Instance(
            [f"p{i} q{i}" for i in range(20)], UniformCost(3.0)
        )
        stats = InstanceStats(instance, sample_costs=2)
        # Uniform costs: any sample gives the same extremes.
        assert stats.max_cost == 3.0 == stats.min_cost


class TestCliAnalyze:
    def test_analyze_generated_dataset(self, capsys):
        from repro.cli import main

        assert main(["analyze", "bestbuy", "--n", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "queries (n)  : 40" in out
        assert "length histogram" in out
