"""Tests for the overlapping-construction-costs extension."""

import math

import pytest

from repro.core import MC3Instance
from repro.exceptions import InvalidInstanceError
from repro.extensions import SharedLabelingCost, shared_cost_local_search
from repro.solvers import GeneralSolver
from tests.conftest import random_instance


@pytest.fixture
def instance():
    return MC3Instance(
        ["a b", "a c"],
        {"a": 4, "b": 2, "c": 2, "a b": 5, "a c": 5},
        name="shared",
    )


class TestSetCost:
    def test_sigma_zero_is_additive(self, instance):
        cost = SharedLabelingCost(instance, sigma=0.0)
        selection = [frozenset(("a", "b")), frozenset(("a", "c"))]
        assert cost.set_cost(selection) == 10.0

    def test_sharing_discounts_repeated_properties(self, instance):
        cost = SharedLabelingCost(instance, sigma=1.0)
        selection = [frozenset(("a", "b")), frozenset(("a", "c"))]
        # Each pair's cost 5 splits 2.5/2.5; property a is shared, so one
        # of the 2.5 shares is saved entirely.
        assert cost.set_cost(selection) == pytest.approx(7.5)

    def test_subadditive_never_exceeds_sum(self, instance):
        cost = SharedLabelingCost(instance, sigma=0.7)
        selection = [frozenset(("a", "b")), frozenset(("a", "c")), frozenset("a")]
        additive = sum(instance.weight(c) for c in selection)
        assert cost.set_cost(selection) <= additive

    def test_monotone_in_sigma(self, instance):
        selection = [frozenset(("a", "b")), frozenset(("a", "c"))]
        values = [
            SharedLabelingCost(instance, sigma=s).set_cost(selection)
            for s in (0.0, 0.3, 0.6, 1.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_difficulty_shifts_shares(self, instance):
        # Property a carries almost all of each pair's work; sharing it
        # saves almost everything duplicated.
        cost = SharedLabelingCost(
            instance, sigma=1.0, property_difficulty={"a": 100, "b": 1, "c": 1}
        )
        selection = [frozenset(("a", "b")), frozenset(("a", "c"))]
        assert cost.set_cost(selection) < 6.0

    def test_infinite_member_is_infinite(self, instance):
        cost = SharedLabelingCost(instance, sigma=0.5)
        assert cost.set_cost([frozenset(("b", "c"))]) == math.inf

    def test_marginal_cost(self, instance):
        cost = SharedLabelingCost(instance, sigma=1.0)
        base = [frozenset(("a", "b"))]
        marginal = cost.marginal_cost(frozenset(("a", "c")), base)
        assert marginal == pytest.approx(2.5)  # 5 minus the shared a-share
        assert cost.marginal_cost(frozenset(("a", "b")), base) == 0.0

    def test_invalid_params(self, instance):
        with pytest.raises(InvalidInstanceError):
            SharedLabelingCost(instance, sigma=1.5)
        with pytest.raises(InvalidInstanceError):
            SharedLabelingCost(instance, property_difficulty={"a": 0})


class TestLocalSearch:
    def test_requires_feasible_start(self, instance):
        cost = SharedLabelingCost(instance, sigma=0.5)
        with pytest.raises(InvalidInstanceError):
            shared_cost_local_search(instance, cost, start=[])

    def test_never_worse_and_stays_feasible(self):
        for seed in range(6):
            instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
            start = GeneralSolver().solve(instance).solution.classifiers
            cost = SharedLabelingCost(instance, sigma=0.6)
            result = shared_cost_local_search(instance, cost, start)
            assert result.cost <= result.start_cost + 1e-9
            from repro.core import verify_cover

            verify_cover(instance.queries, result.classifiers)

    def test_decompose_move_exploits_sharing(self):
        """With strong sharing, singleton reuse beats disjoint pairs."""
        instance = MC3Instance(
            ["a b", "a c", "a d"],
            {
                "a": 6, "b": 6, "c": 6, "d": 6,
                "a b": 7, "a c": 7, "a d": 7,
            },
        )
        # Additive optimum: the three pairs (21) beat singletons (24).
        start = GeneralSolver().solve(instance).solution.classifiers
        assert sum(instance.weight(c) for c in start) == 21.0
        cost = SharedLabelingCost(instance, sigma=1.0)
        result = shared_cost_local_search(instance, cost, start)
        # Under full sharing the three pairs cost 21 - 2*3.5 = 14; the
        # search must do at least as well as the start's shared price.
        assert result.cost <= cost.set_cost(start) + 1e-9

    def test_drop_move_removes_redundant(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 5})
        cost = SharedLabelingCost(instance, sigma=0.0)
        start = [frozenset("a"), frozenset("b"), frozenset(("a", "b"))]
        result = shared_cost_local_search(instance, cost, start)
        assert frozenset(("a", "b")) not in result.classifiers
        assert result.cost == 2.0

    def test_merge_move_available(self):
        """When the union classifier is cheap, merging two picks wins."""
        instance = MC3Instance(["a b"], {"a": 5, "b": 5, "a b": 3})
        cost = SharedLabelingCost(instance, sigma=0.0)
        result = shared_cost_local_search(
            instance, cost, start=[frozenset("a"), frozenset("b")]
        )
        assert result.classifiers == frozenset({frozenset(("a", "b"))})
        assert result.cost == 3.0

    def test_improvement_metric(self, instance):
        cost = SharedLabelingCost(instance, sigma=0.5)
        start = GeneralSolver().solve(instance).solution.classifiers
        result = shared_cost_local_search(instance, cost, start)
        assert 0.0 <= result.improvement < 1.0
