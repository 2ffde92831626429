"""Tests for set multi-cover and the robust (r-redundant) MC³ solver."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance
from repro.exceptions import InvalidInstanceError, SolverError, UncoverableQueryError
from repro.setcover import (
    WSCInstance,
    exact_multicover,
    greedy_multicover,
    verify_multicover,
)
from repro.solvers import RobustSolver, make_solver, survives_failures
from tests.conftest import random_instance


def build(sets_with_costs):
    instance = WSCInstance()
    for index, (members, cost) in enumerate(sets_with_costs):
        instance.add_set(f"s{index}", members, cost)
    return instance


def random_multicover(seed, num_elements=5, extra_sets=6, max_demand=2):
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(num_elements)]
    instance = WSCInstance()
    # max_demand unit sets per element guarantee feasibility.
    for copy in range(max_demand):
        for index, element in enumerate(elements):
            instance.add_set(f"unit{copy}-{index}", [element], rng.randint(1, 8))
    for index in range(extra_sets):
        members = rng.sample(elements, rng.randint(1, num_elements))
        instance.add_set(f"s{index}", members, rng.randint(1, 8))
    demands = [rng.randint(0, max_demand) for _ in elements]
    return instance, demands


def brute_force_multicover(instance, demands):
    best = math.inf
    ids = range(instance.num_sets)
    for size in range(instance.num_sets + 1):
        for combo in itertools.combinations(ids, size):
            cost = sum(instance.set_cost(s) for s in combo)
            if cost >= best:
                continue
            counts = [0] * instance.universe_size
            for s in combo:
                for e in instance.set_members(s):
                    counts[e] += 1
            if all(c >= d for c, d in zip(counts, demands)):
                best = cost
    return best


class TestGreedyMulticover:
    def test_demand_one_equals_cover(self):
        instance = build([(["a", "b"], 2), (["a"], 1), (["b"], 1)])
        solution = greedy_multicover(instance, [1, 1])
        verify_multicover(instance, [1, 1], solution)

    def test_demand_two_buys_two_distinct_sets(self):
        instance = build([(["a"], 1), (["a"], 2), (["a"], 3)])
        solution = greedy_multicover(instance, [2])
        assert len(solution.set_ids) == 2
        assert solution.cost == 3.0  # the two cheapest

    def test_zero_demand_buys_nothing(self):
        instance = build([(["a"], 1)])
        solution = greedy_multicover(instance, [0])
        assert solution.set_ids == ()

    def test_infeasible_demand_rejected(self):
        instance = build([(["a"], 1)])
        with pytest.raises(UncoverableQueryError):
            greedy_multicover(instance, [2])

    def test_wrong_demand_length_rejected(self):
        instance = build([(["a"], 1)])
        with pytest.raises(InvalidInstanceError):
            greedy_multicover(instance, [1, 1])

    def test_negative_demand_rejected(self):
        instance = build([(["a"], 1)])
        with pytest.raises(InvalidInstanceError):
            greedy_multicover(instance, [-1])

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_feasible_on_random_instances(self, seed):
        instance, demands = random_multicover(seed)
        solution = greedy_multicover(instance, demands)
        verify_multicover(instance, demands, solution)


class TestExactMulticover:
    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=12, deadline=None)
    def test_matches_brute_force(self, seed):
        instance, demands = random_multicover(seed, num_elements=3, extra_sets=3)
        exact = exact_multicover(instance, demands)
        assert exact.cost == pytest.approx(brute_force_multicover(instance, demands))

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=12, deadline=None)
    def test_greedy_never_beats_exact(self, seed):
        instance, demands = random_multicover(seed, num_elements=4, extra_sets=4)
        greedy = greedy_multicover(instance, demands)
        exact = exact_multicover(instance, demands)
        assert exact.cost <= greedy.cost + 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12, 1e-300])
    def test_tiny_costs_keep_the_optimum(self, scale):
        # Greedy takes the 1.2 set first and pays 2.2·s; two unit sets
        # cover all four elements for 2·s.
        instance = build(
            [
                (["1", "2"], 1 * scale),
                (["3", "4"], 1 * scale),
                (["1", "2", "3"], 1.2 * scale),
                (["4"], 1 * scale),
            ]
        )
        demands = [1] * instance.universe_size
        assert greedy_multicover(instance, demands).cost == pytest.approx(2.2 * scale)
        exact = exact_multicover(instance, demands)
        assert exact.cost == brute_force_multicover(instance, demands) == 2 * scale

    def test_node_limit(self):
        instance, demands = random_multicover(5, num_elements=5, extra_sets=8)
        with pytest.raises(SolverError):
            exact_multicover(instance, demands, node_limit=1)


class TestRobustSolver:
    def test_redundancy_one_is_plain_cover(self):
        instance = random_instance(3, num_properties=6, num_queries=5, max_length=3)
        result = RobustSolver(redundancy=1).solve(instance)
        result.solution.verify(instance)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=15, deadline=None)
    def test_redundancy_two_survives_any_single_failure(self, seed):
        instance = random_instance(
            seed, num_properties=6, num_queries=5, max_length=3
        )
        if any(len(q) == 1 for q in instance.queries):
            # Singleton queries have a single candidate classifier and
            # cannot be made redundant.
            with pytest.raises(UncoverableQueryError):
                RobustSolver(redundancy=2).solve(instance)
            return
        result = RobustSolver(redundancy=2).solve(instance)
        result.solution.verify(instance)
        assert survives_failures(instance, result.solution, failures=1)

    def test_redundancy_costs_more(self):
        instance = MC3Instance(
            ["a b", "b c"],
            {"a": 1, "b": 1, "c": 1, "a b": 2, "b c": 2},
        )
        plain = make_solver("mc3-general").solve(instance).cost
        robust = RobustSolver(redundancy=2).solve(instance).cost
        assert robust > plain

    def test_invalid_redundancy(self):
        with pytest.raises(SolverError):
            RobustSolver(redundancy=0)

    def test_registered(self):
        solver = make_solver("mc3-robust", redundancy=2)
        assert solver.redundancy == 2

    def test_survives_failures_zero_and_limits(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 2})
        result = RobustSolver(redundancy=1).solve(instance)
        assert survives_failures(instance, result.solution, failures=0)
        with pytest.raises(SolverError):
            survives_failures(instance, result.solution, failures=2)

    def test_insufficient_candidates_reported(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 1})  # no AB classifier
        with pytest.raises(UncoverableQueryError):
            RobustSolver(redundancy=2).solve(instance)
