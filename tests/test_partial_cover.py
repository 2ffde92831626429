"""Tests for the budgeted partial-cover extension (the paper's declared
future work)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance
from repro.exceptions import InvalidInstanceError
from repro.extensions import (
    classifier_greedy_partial_cover,
    exact_partial_cover,
    greedy_partial_cover,
)
from tests.conftest import random_instance

ALGORITHMS = [exact_partial_cover, greedy_partial_cover, classifier_greedy_partial_cover]


@pytest.fixture
def small():
    """Three queries with distinctive weights and a tight structure."""
    instance = MC3Instance(
        ["a b", "b c", "d"],
        {"a": 2, "b": 2, "c": 2, "d": 3, "a b": 3, "b c": 3},
        name="partial-small",
    )
    weights = {
        frozenset(("a", "b")): 10.0,
        frozenset(("b", "c")): 4.0,
        frozenset(("d",)): 1.0,
    }
    return instance, weights


class TestValidation:
    def test_negative_budget_rejected(self, small):
        instance, weights = small
        for algorithm in ALGORITHMS:
            with pytest.raises(InvalidInstanceError):
                algorithm(instance, weights, budget=-1)

    def test_negative_weight_rejected(self, small):
        instance, _ = small
        for algorithm in ALGORITHMS:
            with pytest.raises(InvalidInstanceError):
                algorithm(instance, {frozenset(("d",)): -2.0}, budget=5)

    def test_verify_catches_overspend(self, small):
        instance, weights = small
        solution = exact_partial_cover(instance, weights, budget=3)
        bad = type(solution)(
            solution.classifiers, solution.cost, solution.covered_queries,
            solution.covered_weight, budget=solution.cost / 2,
        )
        with pytest.raises(InvalidInstanceError):
            bad.verify(instance, weights)


class TestExact:
    def test_zero_budget_covers_nothing(self, small):
        instance, weights = small
        solution = exact_partial_cover(instance, weights, budget=0)
        assert solution.covered_weight == 0.0
        assert solution.cost == 0.0

    def test_big_budget_covers_everything(self, small):
        instance, weights = small
        solution = exact_partial_cover(instance, weights, budget=100)
        assert solution.covered_queries == frozenset(instance.queries)
        assert solution.covered_weight == 15.0

    def test_tight_budget_prefers_heavy_query(self, small):
        instance, weights = small
        # Budget 3: the AB classifier alone covers the weight-10 query.
        solution = exact_partial_cover(instance, weights, budget=3)
        assert solution.covered_weight == 10.0
        assert frozenset(("a", "b")) in solution.classifiers

    def test_weight_monotone_in_budget(self, small):
        instance, weights = small
        previous = -1.0
        for budget in (0, 2, 3, 4, 6, 8, 100):
            solution = exact_partial_cover(instance, weights, budget=budget)
            solution.verify(instance, weights)
            assert solution.covered_weight >= previous
            previous = solution.covered_weight

    def test_shared_classifier_synergy(self):
        """One mid-cost classifier can complete two queries at once."""
        instance = MC3Instance(
            ["x y", "x z"], {"x": 2, "y": 1, "z": 1, "x y": 9, "x z": 9}
        )
        weights = {frozenset(("x", "y")): 5.0, frozenset(("x", "z")): 5.0}
        solution = exact_partial_cover(instance, weights, budget=4)
        assert solution.covered_weight == 10.0  # X + Y + Z fits exactly


class TestHeuristics:
    @pytest.mark.parametrize("algorithm", [greedy_partial_cover, classifier_greedy_partial_cover])
    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=0, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_feasible_and_never_beats_exact(self, algorithm, seed, budget):
        instance = random_instance(seed, num_properties=5, num_queries=4, max_length=3)
        weights = {q: float(1 + (i % 3)) for i, q in enumerate(instance.queries)}
        heuristic = algorithm(instance, weights, budget=float(budget))
        heuristic.verify(instance, weights)
        optimum = exact_partial_cover(instance, weights, budget=float(budget))
        assert heuristic.covered_weight <= optimum.covered_weight + 1e-9

    def test_bundle_greedy_sees_pairs(self, small):
        instance, weights = small
        solution = greedy_partial_cover(instance, weights, budget=3)
        assert solution.covered_weight == 10.0

    def test_classifier_greedy_blind_to_bundles(self):
        """The per-classifier greedy cannot complete a query that needs
        two new classifiers at once unless one of them completes it."""
        instance = MC3Instance(["x y"], {"x": 1, "y": 1})
        weights = {frozenset(("x", "y")): 5.0}
        solution = classifier_greedy_partial_cover(instance, weights, budget=2)
        bundle = greedy_partial_cover(instance, weights, budget=2)
        assert solution.covered_weight == 0.0  # documented blindness
        assert bundle.covered_weight == 5.0

    def test_free_rider_queries_collected(self):
        """Buying a cover can complete other queries at zero cost."""
        instance = MC3Instance(
            ["x y", "x", "y"], {"x": 2, "y": 2, "x y": 9}
        )
        weights = {
            frozenset(("x", "y")): 1.0,
            frozenset(("x",)): 1.0,
            frozenset(("y",)): 1.0,
        }
        solution = greedy_partial_cover(instance, weights, budget=4)
        assert solution.covered_weight == 3.0

    def test_default_weight_is_one(self):
        instance = MC3Instance(["a"], {"a": 1})
        solution = greedy_partial_cover(instance, {}, budget=1)
        assert solution.covered_weight == 1.0
