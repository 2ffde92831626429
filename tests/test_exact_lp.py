"""Tests for the exact WSC engine, the LP branch-and-bound behind
``exact_wsc`` and ``ExactSolver``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost
from repro.datasets import synthetic
from repro.exceptions import SolverError
from repro.reductions import mc3_to_wsc
from repro.setcover import exact_wsc, greedy_wsc, solve_wsc
from repro.setcover.exact import RELATIVE_GAP, _NodeLP, _search
from repro.setcover.lp import INFEASIBLE, LPRelaxation, LPResult, dual_bound, highs
from repro.solvers import ExactSolver
from tests.conftest import random_instance
from tests.test_best_of import COST_KINDS, wsc_components
from tests.test_invariants import _tiny_priced
from tests.test_setcover import brute_force_wsc, build, random_wsc


def assert_no_cheaper_cover(instance, cost):
    """The combinatorial depth-first search that certificates run finds
    no cover of ``instance`` a relative ``RELATIVE_GAP`` below ``cost``."""
    assert _search(instance, cost * (1 - RELATIVE_GAP), node_limit=1_000_000) is None


class TestExactLP:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_matches_combinatorial_exact(self, seed):
        """The LP search's answer is a cover that neither the
        combinatorial search nor brute-force enumeration can undercut."""
        instance = random_wsc(seed)
        solution = exact_wsc(instance)
        instance.verify_solution(solution)
        assert_no_cheaper_cover(instance, solution.cost)
        assert solution.cost == brute_force_wsc(instance)

    @pytest.mark.parametrize("kind", sorted(COST_KINDS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_any_costs(self, kind, data):
        """Exact on integer costs, within a relative ``RELATIVE_GAP`` on
        tenths and random floats."""
        instance = data.draw(wsc_components(kind, max_elements=6, max_sets=6))
        optimum = brute_force_wsc(instance)
        solution = exact_wsc(instance)
        if kind == "integer":
            assert solution.cost == optimum
        else:
            assert solution.cost == pytest.approx(optimum, rel=RELATIVE_GAP)
        assert solution.lower_bound == solution.cost

    def test_beats_an_incumbent_by_a_millionth(self):
        """Greedy takes Z then W for 2.000002, a relative 1e-6 above the
        optimum X + Y: far more than ``RELATIVE_GAP``, so the search
        must not stop at the incumbent."""
        instance = build(
            [(["1", "2"], 1), (["3", "4"], 1), (["1", "2", "3"], 1.2), (["4"], 0.800002)]
        )
        assert greedy_wsc(instance).cost == pytest.approx(2.000002)
        assert exact_wsc(instance).cost == 2.0

    def test_zero_cost_sets(self):
        instance = build([(["a"], 0), (["b"], 3), (["a", "b"], 2)])
        solution = exact_wsc(instance)
        assert solution.cost == 2.0
        # The zero-cost set for ``a`` is redundant next to ``a b``.
        assert solution.set_ids == (2,)

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
        solution = exact_wsc(instance)
        assert solution.cost == 3.0  # vertex cover of C5 needs 3 vertices

    def test_node_limit(self):
        instance = random_wsc(1, num_elements=8, num_sets=12)
        with pytest.raises(SolverError):
            exact_wsc(instance, node_limit=0)

    def test_medium_instance_beyond_combinatorial_comfort(self):
        """An instance size where the LP search stays comfortably inside
        its node budget."""
        instance = random_wsc(7, num_elements=16, num_sets=40)
        solution = exact_wsc(instance, node_limit=500)
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
        assert exact_wsc(instance).cost == brute_force_wsc(instance) == 3.0

    def test_node_lp_without_an_optimum_raises(self, monkeypatch):
        """A node LP that HiGHS stops on an iteration limit proves
        nothing about the node: the search raises rather than prune it
        as infeasible and return the incumbent."""

        def stopped(self, lower=0.0, upper=1.0):
            return LPResult(
                success=False,
                status=highs.HighsModelStatus.kIterationLimit,
                message="Iteration limit reached",
                x=None,
                fun=None,
                duals=None,
            )

        monkeypatch.setattr(LPRelaxation, "solve", stopped)
        with pytest.raises(SolverError, match="Iteration limit reached"):
            exact_wsc(random_wsc(1, num_elements=8, num_sets=12))


class TestExactSolverEngine:
    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=12, deadline=None)
    def test_engines_agree(self, seed):
        """``ExactSolver``, which solves each component apart, agrees
        with ``exact_wsc`` on the whole instance's set-cover reduction,
        and the combinatorial search finds nothing cheaper."""
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        wsc = mc3_to_wsc(instance)
        whole = exact_wsc(wsc).cost
        assert ExactSolver(cache="off").solve(instance).cost == pytest.approx(whole)
        assert_no_cheaper_cover(wsc, whole)

    def test_synthetic_300_closes_at_the_root(self):
        """The LP bound meets the greedy incumbent at the first node, so
        one node suffices where a search without it runs for minutes."""
        result = ExactSolver(node_limit=1, cache="off").solve(synthetic(300, seed=0))
        assert result.cost == 1231
        assert result.details["engine"]["lower_bound"]["value"] == result.cost


def exact_wsc_lp(instance):
    """The LP branch-and-bound as the ``solve_wsc`` facade reaches it."""
    return solve_wsc(instance, method="exact")


def _scaled(instance, scale):
    """``instance`` with every classifier's cost multiplied by ``scale``."""
    table = {clf: instance.weight(clf) * scale for clf in instance.classifier_universe()}
    return MC3Instance(list(instance.queries), TableCost(table))


class TestTinyCosts:
    """The exact engine stays exact however small the costs are: no
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
        assert solve(instance).cost == brute_force_wsc(instance) == 2 * scale

    @pytest.mark.parametrize("check", ["combinatorial", "lp"])
    def test_random_instances_scaled_down(self, check):
        """Scaled down to 1e-12, the answer stays optimal: checked by the
        combinatorial search on the scaled reduction, or against the LP
        search's unscaled answer, scaled."""
        for seed in range(80):
            instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
            scaled = _scaled(instance, 1e-12)
            result = ExactSolver(cache="off").solve(scaled)
            if check == "combinatorial":
                assert_no_cheaper_cover(mc3_to_wsc(scaled), result.cost)
            else:
                optimum = ExactSolver(cache="off").solve(instance).cost
                assert result.cost == pytest.approx(optimum * 1e-12, rel=1e-9), seed
            bound = result.details["engine"]["lower_bound"]["value"]
            assert bound <= result.cost * (1 + 1e-9), seed

    @pytest.mark.parametrize("check", ["combinatorial", "lp"])
    def test_tiny_priced_query(self, check):
        """One query whose cheapest covers cost far below HiGHS's
        absolute tolerance: the engine's answer is optimal, checked by the
        combinatorial search or by brute force, and the solver's bound
        stays at or below it."""
        instance = _tiny_priced()
        wsc = mc3_to_wsc(instance)
        solution = exact_wsc(wsc)
        if check == "combinatorial":
            assert_no_cheaper_cover(wsc, solution.cost)
        else:
            assert solution.cost == brute_force_wsc(wsc)
        result = ExactSolver(cache="off").solve(instance)
        assert result.cost == solution.cost
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
