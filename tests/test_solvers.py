"""Tests for every MC³ solver: correctness against the exact oracle and
the brute-force oracle, approximation guarantees, baselines, registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, UniformCost
from repro.exceptions import (
    InfeasibleSolutionError,
    ReductionError,
    SolverError,
    UncoverableQueryError,
)
from repro.extensions import instance_guarantee
from repro.solvers import (
    ExactSolver,
    GeneralSolver,
    K2Solver,
    LocalGreedySolver,
    MixedSolver,
    PropertyOrientedSolver,
    QueryOrientedSolver,
    ShortFirstSolver,
    available_solvers,
    make_solver,
)
from tests.conftest import brute_force_optimum, random_instance


class TestExactSolver:
    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force(self, seed):
        for shape in ((5, 3), (6, 5)):
            num_properties, num_queries = shape
            instance = random_instance(
                seed, num_properties=num_properties, num_queries=num_queries, max_length=3
            )
            result = ExactSolver().solve(instance)
            assert result.cost == brute_force_optimum(instance, max_universe=22)

    def test_example_11(self, example11):
        result = ExactSolver().solve(example11)
        assert result.cost == 7.0
        assert result.solution.classifiers == frozenset(
            {
                frozenset(("adidas", "chelsea")),
                frozenset(("adidas", "juventus")),
                frozenset(("white",)),
            }
        )


class TestK2Solver:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_optimal_on_random_k2(self, seed):
        instance = random_instance(seed, num_properties=7, num_queries=6, max_length=2)
        exact = ExactSolver().solve(instance).cost
        result = K2Solver().solve(instance)
        assert result.cost == pytest.approx(exact)

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=15, deadline=None)
    def test_no_preprocessing_still_optimal(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=2)
        assert K2Solver(preprocess_steps=()).solve(instance).cost == pytest.approx(
            ExactSolver().solve(instance).cost
        )

    def test_rejects_long_queries(self):
        instance = MC3Instance(["a b c"], UniformCost(1.0))
        with pytest.raises(ReductionError):
            K2Solver().solve(instance)

    def test_handles_singleton_queries_without_prep(self):
        instance = MC3Instance(["a", "a b"], {"a": 2, "b": 1, "a b": 9})
        result = K2Solver(preprocess_steps=()).solve(instance)
        assert result.cost == 3.0

    def test_missing_classifiers_instance(self):
        """Pairs unavailable for some queries, singletons for others."""
        instance = MC3Instance(
            ["a b", "b c"], {"a": 4, "b": 4, "c": 1, "a b": 2}
        )  # bc must use B + C, ab can use the pair
        result = K2Solver().solve(instance)
        assert result.cost == ExactSolver().solve(instance).cost

    def test_uncoverable_raises(self):
        instance = MC3Instance(["a b"], {"a": 1})
        with pytest.raises(UncoverableQueryError):
            K2Solver().solve(instance)


class TestGeneralSolver:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_feasible_and_within_guarantee(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=4)
        exact = ExactSolver().solve(instance).cost
        result = GeneralSolver().solve(instance)
        result.solution.verify(instance)
        assert result.cost >= exact - 1e-9
        assert result.cost <= instance_guarantee(instance) * exact + 1e-6

    def test_unknown_wsc_method_rejected(self):
        # Before, any unknown value silently ran best-of.
        with pytest.raises(SolverError, match="unknown WSC method"):
            GeneralSolver(wsc_method="magic")

    @pytest.mark.parametrize("method", ["greedy", "lp", "primal_dual", "best_of"])
    def test_all_methods_feasible(self, method):
        instance = random_instance(33, num_properties=7, num_queries=6, max_length=4)
        result = GeneralSolver(wsc_method=method).solve(instance)
        result.solution.verify(instance)

    def test_best_of_not_worse_than_arms(self):
        instance = random_instance(12, num_properties=7, num_queries=7, max_length=4)
        best = GeneralSolver(wsc_method="best_of").solve(instance).cost
        greedy = GeneralSolver(wsc_method="greedy").solve(instance).cost
        lp = GeneralSolver(wsc_method="lp").solve(instance).cost
        assert best <= min(greedy, lp) + 1e-9

    def test_lp_size_limit_falls_back(self):
        instance = random_instance(5, num_properties=6, num_queries=5, max_length=3)
        result = GeneralSolver(lp_size_limit=0).solve(instance)
        assert "primal_dual" in result.details["f_approximation_modes"] or (
            result.details["components"] == 0
        )

    def test_prune_only_improves(self):
        instance = random_instance(9, num_properties=7, num_queries=7, max_length=4)
        pruned = GeneralSolver(wsc_method="lp", prune=True).solve(instance).cost
        raw = GeneralSolver(wsc_method="lp", prune=False).solve(instance).cost
        assert pruned <= raw + 1e-9

    def test_example_11_optimal(self, example11):
        assert GeneralSolver().solve(example11).cost == 7.0

    def test_details_structure(self):
        instance = random_instance(3, num_properties=5, num_queries=4, max_length=3)
        details = GeneralSolver().solve(instance).details
        assert set(details) >= {"preprocess", "components", "wsc_method", "wins"}


class TestShortFirst:
    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=15, deadline=None)
    def test_feasible(self, seed):
        instance = random_instance(seed, num_properties=7, num_queries=6, max_length=4)
        result = ShortFirstSolver().solve(instance)
        result.solution.verify(instance)

    def test_all_short_equals_k2(self):
        instance = random_instance(8, num_properties=7, num_queries=6, max_length=2)
        assert ShortFirstSolver().solve(instance).cost == pytest.approx(
            K2Solver().solve(instance).cost
        )

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ShortFirstSolver(threshold=0)

    def test_details(self):
        instance = random_instance(4, num_properties=6, num_queries=6, max_length=4)
        details = ShortFirstSolver().solve(instance).details
        assert "threshold" in details


class TestBaselines:
    def test_property_oriented_selects_all_singletons(self):
        instance = MC3Instance(["a b", "c"], UniformCost(2.0))
        result = PropertyOrientedSolver().solve(instance)
        assert result.cost == 6.0
        assert all(len(c) == 1 for c in result.solution.classifiers)

    def test_property_oriented_requires_singletons(self):
        instance = MC3Instance(["a b"], {"a": 1, "a b": 1})
        with pytest.raises(UncoverableQueryError):
            PropertyOrientedSolver().solve(instance)

    def test_query_oriented_one_per_query(self):
        instance = MC3Instance(["a b", "c"], UniformCost(2.0))
        result = QueryOrientedSolver().solve(instance)
        assert result.cost == 4.0
        assert frozenset(("a", "b")) in result.solution.classifiers

    def test_query_oriented_requires_full_classifiers(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 1})
        with pytest.raises(UncoverableQueryError):
            QueryOrientedSolver().solve(instance)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_mixed_optimal_on_uniform_costs(self, seed):
        instance = random_instance(seed, num_properties=7, num_queries=6, max_length=2)
        uniform = instance.with_cost(UniformCost(1.0))
        assert MixedSolver().solve(uniform).cost == pytest.approx(
            ExactSolver().solve(uniform).cost
        )

    def test_mixed_rejects_varying_costs(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 2, "a b": 1})
        with pytest.raises(SolverError):
            MixedSolver().solve(instance)

    def test_mixed_rejects_long_queries(self):
        instance = MC3Instance(["a b c"], UniformCost(1.0))
        with pytest.raises(SolverError):
            MixedSolver().solve(instance)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=15, deadline=None)
    def test_local_greedy_feasible_and_at_least_optimal(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        result = LocalGreedySolver().solve(instance)
        result.solution.verify(instance)
        assert result.cost >= ExactSolver().solve(instance).cost - 1e-9

    def test_local_greedy_reuses_selections(self):
        """Shared classifiers are bought once."""
        instance = MC3Instance(
            ["a b", "a c"], {"a": 1, "b": 1, "c": 1, "a b": 9, "a c": 9}
        )
        result = LocalGreedySolver().solve(instance)
        assert result.cost == 3.0


class TestRegistry:
    def test_known_names(self):
        names = available_solvers()
        assert "mc3-k2" in names and "mc3-general" in names

    def test_make_solver_kwargs(self):
        solver = make_solver("mc3-k2", preprocess_steps=(1, 2))
        assert solver.preprocess_steps == (1, 2)

    def test_unknown_name(self):
        with pytest.raises(SolverError):
            make_solver("nope")

    @pytest.mark.parametrize(
        "name", sorted(set(available_solvers()) - {"mixed", "mc3-k2"})
    )
    def test_every_solver_runs_on_small_instance(self, name, example11):
        # example11 has k = 3; mc3-k2 and mixed have stricter domains and
        # are exercised separately above.
        result = make_solver(name).solve(example11)
        result.solution.verify(example11)

    def test_verification_catches_bad_solver(self, example11):
        """The base-class verify hook must reject infeasible output."""

        class BrokenSolver(K2Solver):
            def _solve(self, instance):
                from repro.core import Solution

                return Solution([], 0.0), {}

        with pytest.raises(InfeasibleSolutionError):
            BrokenSolver().solve(example11)
