"""Tests for the LP-based exact WSC engine."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy import _core as highs

from repro.core import MC3Instance, TableCost
from repro.exceptions import SolverError
from repro.reductions import mc3_to_wsc
from repro.setcover import exact_wsc, exact_wsc_lp
from repro.setcover.exact_lp import _NodeLP
from repro.setcover.lp import INFEASIBLE, LPRelaxation, dual_bound
from repro.solvers import ExactSolver
from tests.conftest import random_instance
from tests.test_invariants import _tiny_priced
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
        assert result.success is False and result.status in INFEASIBLE
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

    def test_node_lp_without_an_optimum_raises(self, monkeypatch):
        """A node LP that HiGHS stops on an iteration limit proves
        nothing about the node: the search raises rather than prune it
        as infeasible and return the incumbent."""

        def stopped(self, lower=0.0, upper=1.0):
            return OptimizeResult(
                success=False,
                status=highs.HighsModelStatus.kIterationLimit,
                message="Iteration limit reached",
                x=None,
                fun=None,
                duals=None,
            )

        monkeypatch.setattr(LPRelaxation, "solve", stopped)
        with pytest.raises(SolverError, match="Iteration limit reached"):
            exact_wsc_lp(random_wsc(1, num_elements=8, num_sets=12))


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


def _brute_force_wsc(instance):
    return min(
        sum(instance.set_cost(s) for s in chosen)
        for size in range(1, instance.num_sets + 1)
        for chosen in combinations(range(instance.num_sets), size)
        if {e for s in chosen for e in instance.set_members(s)}
        == set(range(instance.universe_size))
    )


def _scaled(instance, scale):
    """``instance`` with every classifier's cost multiplied by ``scale``."""
    table = {clf: instance.weight(clf) * scale for clf in instance.classifier_universe()}
    return MC3Instance(list(instance.queries), TableCost(table))


class TestTinyCosts:
    """Both exact engines stay exact however small the costs are: no
    absolute slack may prune the optimum, and HiGHS's absolute
    tolerances may not decide a node."""

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-10, 1e-12, 1e-13, 1e-300])
    @pytest.mark.parametrize("solve", [exact_wsc, exact_wsc_lp])
    def test_four_sets(self, solve, scale):
        # Greedy takes Z (ratio 0.4) then W: 2.2·s.  X + Y cost 2·s.
        instance = build(
            [
                (["1", "2"], 1 * scale),
                (["3", "4"], 1 * scale),
                (["1", "2", "3"], 1.2 * scale),
                (["4"], 1 * scale),
            ]
        )
        assert solve(instance).cost == _brute_force_wsc(instance) == 2 * scale

    @pytest.mark.parametrize("engine", ["combinatorial", "lp"])
    def test_random_instances_scaled_down(self, engine):
        for seed in range(80):
            instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
            optimum = ExactSolver(cache="off").solve(instance).cost
            result = ExactSolver(engine=engine, cache="off").solve(_scaled(instance, 1e-12))
            assert result.cost == pytest.approx(optimum * 1e-12, rel=1e-9), seed
            bound = result.details["engine"]["lower_bound"]["value"]
            assert bound <= optimum * 1e-12 * (1 + 1e-9), seed

    @pytest.mark.parametrize("engine", ["combinatorial", "lp"])
    def test_tiny_priced_query(self, engine):
        """One query whose cheapest covers cost far below HiGHS's
        absolute tolerance: both engines find the brute-force optimum,
        and the solver's bound stays at or below it."""
        instance = _tiny_priced()
        wsc = mc3_to_wsc(instance)
        solve = exact_wsc if engine == "combinatorial" else exact_wsc_lp
        optimum = _brute_force_wsc(wsc)
        assert solve(wsc).cost == optimum
        result = ExactSolver(engine=engine, cache="off").solve(instance)
        assert result.cost == optimum
        assert result.details["engine"]["lower_bound"]["value"] <= result.cost

    def test_dual_bound_with_fixings(self):
        instance = build(
            [(["1", "2"], 1), (["3", "4"], 1), (["1", "2", "3"], 1.25), (["4"], 1)]
        )
        zero = np.zeros(instance.universe_size)
        # With y = 0 a cover pays at least for the sets fixed to 1.
        assert dual_bound(instance, zero) == 0.0
        assert dual_bound(instance, zero, {0: 0, 2: 1, 3: 1}) == 2.25
        # The root LP's duals bound every cover by LP* = 2; under the
        # node LP that fixes the third set to 1 they bound the box's
        # best cover, 1.25 + 1.
        root = LPRelaxation(instance).solve().duals
        assert dual_bound(instance, root) == pytest.approx(2.0)
        assert dual_bound(instance, root) <= 2.0
        bound, _ = _NodeLP(instance).solve({2: 1})
        assert bound == pytest.approx(2.25) and bound <= 2.25
