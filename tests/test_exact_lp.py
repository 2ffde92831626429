"""Tests for the LP-based exact WSC engine."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.setcover import exact_wsc, exact_wsc_lp
from repro.setcover.exact_lp import _NodeLP
from repro.setcover.lp import LPRelaxation
from repro.solvers import ExactSolver
from tests.conftest import random_instance
from tests.test_setcover import build, random_wsc


class TestExactLP:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_matches_combinatorial_exact(self, seed):
        instance = random_wsc(seed)
        assert exact_wsc_lp(instance).cost == pytest.approx(exact_wsc(instance).cost)

    def test_zero_cost_sets(self):
        instance = build([(["a"], 0), (["b"], 3), (["a", "b"], 2)])
        assert exact_wsc_lp(instance).cost == 2.0

    def test_fractional_lp_instance(self):
        """The odd-cycle instance whose LP optimum is fractional (every
        vertex at 1/2): branching is genuinely exercised."""
        # Elements = edges of a 5-cycle, sets = vertices.
        instance = build(
            [
                (["e01", "e40"], 1),
                (["e01", "e12"], 1),
                (["e12", "e23"], 1),
                (["e23", "e34"], 1),
                (["e34", "e40"], 1),
            ]
        )
        solution = exact_wsc_lp(instance)
        assert solution.cost == 3.0  # vertex cover of C5 needs 3 vertices

    def test_node_limit(self):
        instance = random_wsc(1, num_elements=8, num_sets=12)
        with pytest.raises(SolverError):
            exact_wsc_lp(instance, node_limit=0)

    def test_medium_instance_beyond_combinatorial_comfort(self):
        """An instance size where the LP engine stays comfortably inside
        its node budget."""
        instance = random_wsc(7, num_elements=16, num_sets=40)
        solution = exact_wsc_lp(instance, node_limit=500)
        instance.verify_solution(solution)

    def test_node_fixings_that_leave_an_element_uncoverable(self):
        """Fixing both sets that hold ``c`` to 0 makes the node LP
        infeasible: HiGHS reports no optimum, the node is dropped, and
        the search still returns the optimum."""
        instance = build(
            [(["a", "b"], 2), (["b", "c"], 2), (["a", "c"], 2), (["c"], 1), (["a"], 1)]
        )
        upper = np.ones(instance.num_sets)
        upper[[1, 2, 3]] = 0.0
        result = LPRelaxation(instance).solve(0.0, upper)
        assert result.success is False
        assert result.x is None and result.fun is None and result.duals is None
        assert _NodeLP(instance).solve({1: 0, 2: 0, 3: 0}) is None
        assert _NodeLP(instance).solve({1: 0, 2: 0}) is not None
        brute = min(
            sum(instance.set_cost(s) for s in chosen)
            for size in range(1, instance.num_sets + 1)
            for chosen in combinations(range(instance.num_sets), size)
            if {e for s in chosen for e in instance.set_members(s)}
            == set(range(instance.universe_size))
        )
        assert exact_wsc_lp(instance).cost == brute == 3.0


class TestExactSolverEngine:
    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=12, deadline=None)
    def test_engines_agree(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        combinatorial = ExactSolver(engine="combinatorial").solve(instance).cost
        lp = ExactSolver(engine="lp").solve(instance).cost
        assert lp == pytest.approx(combinatorial)

    def test_unknown_engine(self):
        with pytest.raises(SolverError):
            ExactSolver(engine="quantum")
