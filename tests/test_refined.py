"""Tests for the remove-and-repair refinement solver."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance
from repro.solvers import ExactSolver, GeneralSolver, RefinedSolver, refine_selection
from tests.conftest import random_instance


class TestRefineSelection:
    def test_removes_overpriced_classifier(self):
        """A greedy-ish selection holding the expensive pair gets
        repaired with the cheap singletons."""
        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 5})
        refined, moves = refine_selection(
            instance, {frozenset(("a", "b"))}
        )
        assert refined == {frozenset("a"), frozenset("b")}
        assert moves == 1

    def test_keeps_good_selection(self):
        instance = MC3Instance(["a b"], {"a": 3, "b": 3, "a b": 5})
        start = {frozenset(("a", "b"))}
        refined, moves = refine_selection(instance, start)
        assert refined == start
        assert moves == 0

    def test_repair_reuses_other_selections(self):
        """Removing AB is worthwhile only because A is already selected
        for another query."""
        instance = MC3Instance(
            ["a b", "a c"],
            {"a": 2, "b": 3, "c": 1, "a b": 4, "a c": 2},
        )
        start = {frozenset(("a", "b")), frozenset("a"), frozenset("c")}
        refined, _moves = refine_selection(instance, start)
        cost = instance.total_weight(refined)
        assert cost <= instance.total_weight(start)


class TestRefinedSolver:
    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=20, deadline=None)
    def test_never_worse_than_general_never_beats_exact(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        general = GeneralSolver(wsc_method="greedy").solve(instance)
        refined = RefinedSolver(wsc_method="greedy").solve(instance)
        exact = ExactSolver().solve(instance)
        refined.solution.verify(instance)
        assert refined.cost <= general.cost + 1e-9
        assert refined.cost >= exact.cost - 1e-9

    def test_details_report_moves(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 5})
        result = RefinedSolver().solve(instance)
        assert "refinement_moves" in result.details
        assert result.details["refinement_saving"] >= 0

    def test_cost_ratio_is_taken_against_the_refined_cost(self):
        from repro.datasets import private_like

        instance = private_like(300, seed=0)
        result = RefinedSolver().solve(instance)
        inner = GeneralSolver().solve(instance)
        bound = result.details["engine"]["lower_bound"]
        assert bound["value"] == inner.details["engine"]["lower_bound"]["value"]
        assert bound["cost_ratio"] == result.cost / bound["value"]
        assert result.details["refinement_saving"] > 0
        inner_bound = inner.details["engine"]["lower_bound"]
        assert bound["cost_ratio"] < inner_bound["cost_ratio"]

    def test_registered(self):
        from repro.solvers import make_solver

        solver = make_solver("mc3-refined", max_rounds=2)
        assert solver.max_rounds == 2
