"""Zero-weight classifiers through every layer: reductions, flow,
solvers.  Zero weights model already-known properties (Section 2.1) and
preprocessing selections, so every path must handle capacity-0 edges
and free sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost, ZeroedCost
from repro.flow import FlowNetwork, dinic
from repro.reductions import mc3_to_bipartite_wvc, solve_bipartite_wvc
from repro.solvers import ExactSolver, GeneralSolver, K2Solver
from tests.conftest import random_instance


class TestZeroCapacityFlow:
    def test_zero_capacity_edges_carry_nothing(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 0)
        network.add_edge("a", "t", 5)
        network.add_edge("s", "t", 2)
        assert dinic(network, "s", "t") == 2


class TestZeroWeightWVC:
    def test_free_singleton_dominates(self):
        cost = TableCost({"x": 0, "y": 3, "x y": 2})
        graph = mc3_to_bipartite_wvc([frozenset(("x", "y"))], cost)
        cover, weight = solve_bipartite_wvc(graph)
        assert weight == 2.0  # XY (2) beats X (0) + Y (3)

    def test_both_singletons_free(self):
        cost = TableCost({"x": 0, "y": 0, "x y": 2})
        graph = mc3_to_bipartite_wvc([frozenset(("x", "y"))], cost)
        _cover, weight = solve_bipartite_wvc(graph)
        assert weight == 0.0


class TestKnownProperties:
    """Section 2.1: known properties get zero-cost classifiers, but mixed
    classifiers keep their price and may still win."""

    def test_zeroed_cost_changes_the_optimum(self):
        base = TableCost({"x": 5, "y": 5, "x y": 4})
        plain = MC3Instance(["x y"], base)
        assert ExactSolver().solve(plain).cost == 4.0

        known_x = MC3Instance(["x y"], ZeroedCost(base, ["x"]))
        # X free: the options are X(0) + Y(5) = 5 vs XY = 4; XY still wins.
        assert ExactSolver().solve(known_x).cost == 4.0

        base2 = TableCost({"x": 5, "y": 3, "x y": 4})
        known_x2 = MC3Instance(["x y"], ZeroedCost(base2, ["x"]))
        assert ExactSolver().solve(known_x2).cost == 3.0  # X free + Y

    def test_paper_example_known_property_keeps_xy_option(self):
        """W(X) = 0 does not strip x from the query: XY may be cheaper
        than Y (Section 2.1's explicit example)."""
        base = TableCost({"x": 0, "y": 9, "x y": 2})
        instance = MC3Instance(["x y"], base)
        result = ExactSolver().solve(instance)
        assert result.cost == 2.0
        assert frozenset(("x", "y")) in result.solution.classifiers

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_solvers_agree_with_known_properties(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=2)
        known = sorted(instance.properties)[:2]
        zeroed = instance.with_cost(ZeroedCost(instance.cost, known))
        exact = ExactSolver().solve(zeroed).cost
        assert K2Solver().solve(zeroed).cost == pytest.approx(exact)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_general_handles_known_properties(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        known = sorted(instance.properties)[:2]
        zeroed = instance.with_cost(ZeroedCost(instance.cost, known))
        result = GeneralSolver().solve(zeroed)
        result.solution.verify(zeroed)
        assert result.cost >= ExactSolver().solve(zeroed).cost - 1e-9
