"""Tests for the Weighted Set Cover substrate: instance model, greedy,
LP rounding, primal–dual and the exact branch-and-bound oracle."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidInstanceError, SolverError, UncoverableQueryError
from repro.setcover import (
    WSCInstance,
    exact_wsc,
    greedy_wsc,
    lp_lower_bound,
    lp_nonzeros,
    lp_relaxation,
    lp_rounding_wsc,
    primal_dual_wsc,
    solve_wsc,
)


def build(sets_with_costs):
    """Helper: [(members, cost), ...] -> WSCInstance."""
    instance = WSCInstance()
    for index, (members, cost) in enumerate(sets_with_costs):
        instance.add_set(f"s{index}", members, cost)
    return instance


def random_wsc(seed, num_elements=7, num_sets=9, max_cost=10):
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(num_elements)]
    instance = WSCInstance()
    # One covering set per element guarantees coverability.
    for index, element in enumerate(elements):
        instance.add_set(f"unit{index}", [element], rng.randint(1, max_cost))
    for index in range(num_sets):
        members = rng.sample(elements, rng.randint(1, num_elements))
        instance.add_set(f"s{index}", members, rng.randint(1, max_cost))
    return instance


def brute_force_wsc(instance):
    best = math.inf
    ids = range(instance.num_sets)
    for size in range(instance.num_sets + 1):
        for combo in itertools.combinations(ids, size):
            cost = sum(instance.set_cost(s) for s in combo)
            if cost >= best:
                continue
            covered = set()
            for s in combo:
                covered.update(instance.set_members(s))
            if len(covered) == instance.universe_size:
                best = cost
    return best


class TestWSCInstance:
    def test_parameters(self):
        instance = build([(["a", "b"], 1), (["b", "c", "d"], 2), (["b"], 3)])
        assert instance.universe_size == 4
        assert instance.num_sets == 3
        assert instance.frequency() == 3  # element b
        assert instance.degree() == 3

    def test_rejects_empty_set(self):
        with pytest.raises(InvalidInstanceError):
            build([([], 1)])

    def test_rejects_bad_cost(self):
        with pytest.raises(InvalidInstanceError):
            build([(["a"], -1)])
        with pytest.raises(InvalidInstanceError):
            build([(["a"], math.inf)])

    def test_zero_cost_allowed(self):
        instance = build([(["a"], 0)])
        assert instance.set_cost(0) == 0.0

    def test_uncoverable_detected(self):
        instance = build([(["a"], 1)])
        instance.add_element("orphan")
        with pytest.raises(UncoverableQueryError):
            instance.validate_coverable()

    def test_verify_solution_catches_gaps(self):
        instance = build([(["a"], 1), (["b"], 1)])
        from repro.setcover import WSCSolution

        with pytest.raises(InvalidInstanceError):
            instance.verify_solution(WSCSolution([0], 1.0))
        with pytest.raises(InvalidInstanceError):
            instance.verify_solution(WSCSolution([0, 1], 5.0))

    def test_prune_redundant_drops_expensive_duplicates(self):
        instance = build([(["a", "b"], 5), (["a"], 1), (["b"], 1)])
        kept = instance.prune_redundant([0, 1, 2])
        assert 0 not in kept
        assert sorted(kept) == [1, 2]

    def test_solution_labels(self):
        instance = build([(["a"], 1)])
        solution = greedy_wsc(instance)
        assert instance.solution_labels(solution) == ["s0"]


class TestGreedy:
    def test_picks_best_ratio(self):
        # One set covering everything at ratio 1 beats two at ratio 1.5.
        instance = build([(["a", "b", "c"], 3), (["a", "b"], 3), (["c"], 3)])
        solution = greedy_wsc(instance)
        assert solution.set_ids == (0,)

    def test_classic_greedy_suboptimality(self):
        """The textbook instance where greedy pays ~H(n) times optimal."""
        instance = build(
            [
                (["e1"], 1.0),
                (["e2"], 1.0 / 2),
                (["e1", "e2"], 1.0 + 1e-6),
            ]
        )
        solution = greedy_wsc(instance)
        instance.verify_solution(solution)
        assert solution.cost == pytest.approx(1.5)  # greedy picks both units

    def test_raises_on_uncoverable(self):
        instance = build([(["a"], 1)])
        instance.add_element("orphan")
        with pytest.raises(UncoverableQueryError):
            greedy_wsc(instance)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_feasible_and_within_ln_bound(self, seed):
        instance = random_wsc(seed)
        solution = greedy_wsc(instance)
        instance.verify_solution(solution)
        optimum = exact_wsc(instance).cost
        bound = math.log(max(2, instance.degree())) + 1
        assert solution.cost <= bound * optimum + 1e-9


class TestLP:
    def test_relaxation_bounds(self):
        instance = build([(["a", "b"], 2), (["a"], 1), (["b"], 1)])
        x = lp_relaxation(instance)
        assert all(-1e-9 <= v <= 1 + 1e-9 for v in x)

    def test_lower_bound_below_optimum(self):
        instance = random_wsc(5)
        assert lp_lower_bound(instance) <= exact_wsc(instance).cost + 1e-9

    def test_nonzeros(self):
        instance = build([(["a", "b"], 1), (["b"], 1)])
        assert lp_nonzeros(instance) == 3

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_rounding_feasible_and_f_approximate(self, seed):
        instance = random_wsc(seed)
        solution = lp_rounding_wsc(instance)
        instance.verify_solution(solution)
        optimum = exact_wsc(instance).cost
        assert solution.cost <= instance.frequency() * optimum + 1e-6
        # The carried bound is LP*: below OPT, and within f of the cover.
        assert solution.lower_bound <= optimum * (1 + 1e-6)
        assert solution.cost <= instance.frequency() * solution.lower_bound * (1 + 1e-6)

    def test_prune_only_improves(self):
        instance = random_wsc(11)
        raw = lp_rounding_wsc(instance, prune=False)
        pruned = lp_rounding_wsc(instance, prune=True)
        assert pruned.cost <= raw.cost


class TestPrimalDual:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_feasible_and_f_approximate(self, seed):
        instance = random_wsc(seed)
        solution = primal_dual_wsc(instance)
        instance.verify_solution(solution)
        optimum = exact_wsc(instance).cost
        assert solution.cost <= instance.frequency() * optimum + 1e-6
        # The carried bound is the dual sum: below OPT (weak duality),
        # and within f of the cover (each set is paid for by its duals).
        assert solution.lower_bound <= optimum + 1e-9
        assert solution.cost <= instance.frequency() * solution.lower_bound + 1e-9

    def test_element_order_changes_output_not_feasibility(self):
        instance = random_wsc(4)
        order = list(range(instance.universe_size))[::-1]
        solution = primal_dual_wsc(instance, element_order=order)
        instance.verify_solution(solution)


class TestExact:
    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed):
        instance = random_wsc(seed, num_elements=5, num_sets=5)
        solution = exact_wsc(instance)
        assert solution.cost == pytest.approx(brute_force_wsc(instance))
        assert solution.lower_bound == solution.cost

    def test_node_limit_raises(self):
        instance = random_wsc(0, num_elements=7, num_sets=10)
        with pytest.raises(SolverError):
            exact_wsc(instance, node_limit=1)


class TestSolveFacade:
    @pytest.mark.parametrize("method", ["greedy", "lp", "primal_dual", "best_of", "exact"])
    def test_all_methods_feasible(self, method):
        instance = random_wsc(9)
        solution = solve_wsc(instance, method=method)
        instance.verify_solution(solution)

    def test_best_of_no_worse_than_greedy(self):
        instance = random_wsc(17)
        assert solve_wsc(instance, "best_of").cost <= solve_wsc(instance, "greedy").cost

    def test_best_of_falls_back_to_primal_dual(self):
        instance = random_wsc(3)
        solution = solve_wsc(instance, "best_of", lp_size_limit=0)
        instance.verify_solution(solution)

    def test_unknown_method(self):
        with pytest.raises(SolverError):
            solve_wsc(random_wsc(1), "magic")
