"""Shrinkable end-to-end fuzzing with composite hypothesis strategies.

These tests intentionally include zero weights, missing classifiers and
duplicate structure — the corners where bookkeeping bugs live.  Failures
shrink to minimal instances (see ``tests/strategies.py``).
"""

import pytest
from hypothesis import given, settings

from repro.core import CoverageChecker
from repro.extensions import instance_guarantee
from repro.preprocess import preprocess
from repro.solvers import ExactSolver, GeneralSolver, K2Solver, LocalGreedySolver
from tests.strategies import k2_instances, mc3_instances


class TestFuzzSolvers:
    @given(mc3_instances(max_queries=5))
    @settings(max_examples=40, deadline=None)
    def test_general_feasible_within_guarantee(self, instance):
        exact = ExactSolver().solve(instance)
        general = GeneralSolver().solve(instance)
        checker = CoverageChecker(instance.queries)
        assert checker.all_covered(general.solution.classifiers)
        assert general.cost >= exact.cost - 1e-9
        assert general.cost <= instance_guarantee(instance) * exact.cost + 1e-6

    @given(mc3_instances(max_queries=5))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_sandwich(self, instance):
        """lower bound ≤ OPT ≤ cost, per run, with and without the exact
        k ≤ 2 route; the 1e-6 relative slack is for the LP optimum."""
        exact = ExactSolver().solve(instance).cost
        for dispatch_k2 in (False, True):
            result = GeneralSolver(dispatch_k2=dispatch_k2, cache="off").solve(instance)
            summary = result.details["engine"]["lower_bound"]
            assert summary["bounded"] == summary["components"]
            assert summary["certified"] <= summary["bounded"]
            assert summary["value"] <= exact * (1 + 1e-6) + 1e-9
            assert summary["value"] <= result.cost * (1 + 1e-6) + 1e-9

    @given(k2_instances(max_queries=6))
    @settings(max_examples=40, deadline=None)
    def test_k2_exactness(self, instance):
        exact = ExactSolver().solve(instance)
        k2 = K2Solver().solve(instance)
        assert k2.cost == pytest.approx(exact.cost)

    @given(mc3_instances(max_queries=4, price_all=False))
    @settings(max_examples=30, deadline=None)
    def test_missing_classifiers_still_sound(self, instance):
        exact = ExactSolver().solve(instance)
        general = GeneralSolver().solve(instance)
        local = LocalGreedySolver().solve(instance)
        assert general.cost >= exact.cost - 1e-9
        assert local.cost >= exact.cost - 1e-9

    @given(mc3_instances(max_queries=5))
    @settings(max_examples=30, deadline=None)
    def test_preprocessing_preserves_optimum(self, instance):
        with_prep = ExactSolver().solve(instance).cost
        without = ExactSolver(preprocess_steps=()).solve(instance).cost
        assert with_prep == pytest.approx(without)

    @given(mc3_instances(max_queries=4))
    @settings(max_examples=30, deadline=None)
    def test_zero_weights_never_break_feasibility(self, instance):
        prep = preprocess(instance)
        solution = GeneralSolver().solve(instance).solution
        checker = CoverageChecker(instance.queries)
        assert checker.all_covered(solution.classifiers)
        # Forced zero-weight selections are free in the final pricing.
        zero_forced = [
            clf for clf in prep.forced if instance.weight(clf) == 0
        ]
        assert all(instance.weight(clf) == 0 for clf in zero_forced)
