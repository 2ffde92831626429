"""Tests for GeneralSolver's k≤2 component dispatch."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance
from repro.solvers import ExactSolver, GeneralSolver
from tests.conftest import random_instance


class TestK2Dispatch:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_exact_on_pure_k2_instances(self, seed):
        """With every component at k <= 2, dispatch makes GeneralSolver
        exact."""
        instance = random_instance(seed, num_properties=7, num_queries=6, max_length=2)
        dispatched = GeneralSolver(dispatch_k2=True).solve(instance)
        exact = ExactSolver().solve(instance)
        assert dispatched.cost == pytest.approx(exact.cost)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=15, deadline=None)
    def test_never_worse_than_plain_general(self, seed):
        instance = random_instance(seed, num_properties=7, num_queries=6, max_length=4)
        dispatched = GeneralSolver(dispatch_k2=True).solve(instance)
        plain = GeneralSolver().solve(instance)
        dispatched.solution.verify(instance)
        assert dispatched.cost <= plain.cost + 1e-9

    def test_details_report_dispatch_count(self):
        # Costs chosen so preprocessing cannot resolve the k=2 component
        # (neither the pair nor the singletons dominate).
        instance = MC3Instance(
            ["a b", "x y z"],
            {"a": 2, "b": 2, "a b": 3,
             "x": 2, "y": 2, "z": 2, "x y": 3, "y z": 3, "x z": 3, "x y z": 5},
        )
        result = GeneralSolver(dispatch_k2=True).solve(instance)
        assert result.details["k2_dispatched"] == 1

    def test_disabled_by_default(self):
        instance = MC3Instance(["a b"], {"a": 2, "b": 2, "a b": 3})
        result = GeneralSolver().solve(instance)
        assert result.details["k2_dispatched"] == 0