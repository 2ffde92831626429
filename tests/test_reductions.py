"""Tests for the problem reductions: MC³(k=2) → bipartite WVC → max-flow,
MC³ → WSC, and the SC → MC³ hardness constructions used as oracles."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost, UniformCost
from repro.exceptions import ReductionError, UncoverableQueryError
from repro.reductions import (
    ANCHOR_PROPERTY,
    BipartiteWVC,
    mc3_solution_to_sc_theorem51,
    mc3_to_bipartite_wvc,
    mc3_to_wsc,
    sc_to_mc3_theorem51,
    sc_to_mc3_theorem52,
    solve_bipartite_wvc,
    wsc_solution_to_mc3,
)
from repro.setcover import exact_wsc, solve_wsc
from repro.solvers import ExactSolver
from tests.conftest import random_instance


#: Classifier weights for the fractional WVC draws: zeros (known
#: properties, preprocessing selections) and non-integers.
FRACTIONAL_WEIGHTS = (0, 0.1, 1 / 3, 0.5, 1, 2.5, 7)


def brute_force_sc(sets, universe):
    """Unweighted set-cover optimum by exhaustive search."""
    best = math.inf
    for size in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            covered = set()
            for index in combo:
                covered.update(sets[index])
            if covered >= set(universe):
                best = min(best, size)
    return best


class TestBipartiteWVCReduction:
    def test_structure(self):
        cost = TableCost({"x": 1, "y": 2, "x y": 3})
        graph = mc3_to_bipartite_wvc([frozenset("xy")], cost)
        assert len(graph.left) == 2
        assert len(graph.right) == 1
        assert len(graph.edges) == 2

    def test_rejects_long_queries(self):
        with pytest.raises(ReductionError):
            mc3_to_bipartite_wvc([frozenset("abc")], UniformCost(1.0))

    def test_rejects_uncoverable(self):
        # Neither the pair nor both singletons are available.
        cost = TableCost({"x": 1})
        with pytest.raises(UncoverableQueryError):
            mc3_to_bipartite_wvc([frozenset("xy")], cost)

    def test_cover_weight_and_validity(self):
        cost = TableCost({"x": 1, "y": 2, "x y": 3})
        graph = mc3_to_bipartite_wvc([frozenset("xy")], cost)
        cover = {frozenset("x"), frozenset("y")}
        assert graph.is_cover(cover)
        assert graph.cover_weight(cover) == 3.0
        assert not graph.is_cover({frozenset("x")})

    def test_unknown_cover_node_rejected(self):
        graph = BipartiteWVC()
        with pytest.raises(ReductionError):
            graph.cover_weight({frozenset("zz")})


class TestWVCToFlow:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_cover_valid_and_weight_matches_flow(self, seed):
        instance = random_instance(
            seed, num_properties=6, num_queries=5, max_length=2
        )
        queries = [q for q in instance.queries if len(q) == 2]
        if not queries:
            return
        graph = mc3_to_bipartite_wvc(queries, instance.cost)
        cover, value = solve_bipartite_wvc(graph)
        assert graph.is_cover(cover)
        assert graph.cover_weight(cover) == pytest.approx(value)

    def test_empty_graph(self):
        cover, value = solve_bipartite_wvc(BipartiteWVC())
        assert cover == set() and value == 0.0

    @given(st.integers(min_value=0, max_value=120), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_cover_weight_is_minimum(self, seed, fractional):
        """Exhaustively verify minimality on tiny instances, with integer
        weights or with fractional and zero ones."""
        instance = random_instance(seed, num_properties=5, num_queries=4, max_length=2)
        queries = [q for q in instance.queries if len(q) == 2]
        if not queries:
            return
        cost = instance.cost
        if fractional:
            rng = random.Random(seed)
            cost = TableCost(
                {
                    clf: rng.choice(FRACTIONAL_WEIGHTS)
                    for q in queries
                    for clf in (q, *(frozenset([p]) for p in sorted(q)))
                }
            )
        graph = mc3_to_bipartite_wvc(queries, cost)
        cover, value = solve_bipartite_wvc(graph)
        assert graph.is_cover(cover)
        assert graph.cover_weight(cover) == pytest.approx(value)
        nodes = list(graph.left) + list(graph.right)
        best = math.inf
        for size in range(len(nodes) + 1):
            for combo in itertools.combinations(nodes, size):
                candidate = set(combo)
                if graph.is_cover(candidate):
                    best = min(best, graph.cover_weight(candidate))
        assert value == pytest.approx(best)


class TestMC3ToWSC:
    def test_figure2_example(self):
        """P = {x,y,z,v}, Q = {xyz, yzv}, all classifiers weight 1."""
        instance = MC3Instance(["x y z", "y z v"], UniformCost(1.0))
        wsc = mc3_to_wsc(instance)
        assert wsc.universe_size == 6  # one element per (property, query)
        # Classifiers relevant to both queries (subsets of the shared yz)
        # cover elements in both; e.g. the set for YZ has 4 members.
        yz_id = next(
            set_id
            for set_id in range(wsc.num_sets)
            if wsc.set_label(set_id) == frozenset(("y", "z"))
        )
        assert len(wsc.set_members(yz_id)) == 4

    def test_frequency_bound(self):
        """f <= 2^(k-1) (Section 5.2)."""
        instance = random_instance(7, num_properties=6, num_queries=5, max_length=3)
        wsc = mc3_to_wsc(instance)
        assert wsc.frequency() <= 2 ** (instance.max_query_length - 1)

    def test_degree_bound(self):
        instance = random_instance(8, num_properties=6, num_queries=5, max_length=3)
        wsc = mc3_to_wsc(instance)
        bound = (instance.max_query_length - 1) * max(1, instance.incidence())
        assert wsc.degree() <= max(bound, instance.max_query_length)

    def test_uncoverable_raises_with_query(self):
        instance = MC3Instance(["a b"], {"a": 1})
        with pytest.raises(UncoverableQueryError) as excinfo:
            mc3_to_wsc(instance)
        assert excinfo.value.query == frozenset(("a", "b"))

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=20, deadline=None)
    def test_solution_translation_preserves_cost_and_feasibility(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=4, max_length=3)
        wsc = mc3_to_wsc(instance)
        wsc_solution = solve_wsc(wsc, "greedy")
        mc3_solution = wsc_solution_to_mc3(wsc, wsc_solution, instance)
        mc3_solution.verify(instance)
        assert mc3_solution.cost == pytest.approx(wsc_solution.cost)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_of_optima(self, seed):
        """Exact MC³ optimum == exact WSC optimum of the reduction."""
        instance = random_instance(seed, num_properties=5, num_queries=4, max_length=3)
        wsc = mc3_to_wsc(instance)
        assert exact_wsc(wsc).cost == pytest.approx(
            ExactSolver(preprocess_steps=()).solve(instance).cost
        )


class TestTheorem51:
    def sc_instance(self, seed):
        rng = random.Random(seed)
        universe = [f"e{i}" for i in range(5)]
        sets = []
        # Every element in >= 2 sets keeps the construction in the
        # theorem's f > 1 regime.
        for _ in range(4):
            sets.append(rng.sample(universe, rng.randint(2, 4)))
        membership = {e: sum(e in s for s in sets) for e in universe}
        for element, count in membership.items():
            while count < 2:
                sets.append([element, rng.choice(universe)])
                count += 1
        return sets, universe

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=12, deadline=None)
    def test_costs_match_sc_optimum(self, seed):
        sets, universe = self.sc_instance(seed)
        try:
            instance, name_map = sc_to_mc3_theorem51(sets, universe)
        except ReductionError:
            return  # duplicate membership patterns — the caller must merge
        mc3_opt = ExactSolver().solve(instance)
        sc_opt = brute_force_sc([set(s) for s in sets], universe)
        assert mc3_opt.cost == pytest.approx(sc_opt)
        # The translated set selection must itself cover the universe.
        chosen = mc3_solution_to_sc_theorem51(mc3_opt.solution, name_map)
        covered = set()
        for index in chosen:
            covered.update(sets[index])
        assert covered >= set(universe)
        assert len(chosen) == sc_opt

    def test_query_structure(self):
        instance, _ = sc_to_mc3_theorem51([["e0", "e1"], ["e1"]], ["e0", "e1"])
        for q in instance.queries:
            assert ANCHOR_PROPERTY in q

    def test_rejects_uncovered_element(self):
        with pytest.raises(ReductionError):
            sc_to_mc3_theorem51([["e0"]], ["e0", "e1"])

    def test_rejects_duplicate_membership(self):
        with pytest.raises(ReductionError):
            sc_to_mc3_theorem51([["e0", "e1"]], ["e0", "e1"])


class TestTheorem52:
    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=12, deadline=None)
    def test_single_query_equivalence(self, seed):
        rng = random.Random(seed)
        universe = [f"e{i}" for i in range(5)]
        sets = [rng.sample(universe, rng.randint(1, 4)) for _ in range(5)]
        for element in universe:  # coverability
            if not any(element in s for s in sets):
                sets.append([element])
        instance, _classifiers = sc_to_mc3_theorem52(sets, universe)
        assert instance.n == 1
        mc3_opt = ExactSolver(preprocess_steps=()).solve(instance)
        assert mc3_opt.cost == pytest.approx(
            brute_force_sc([set(s) for s in sets], universe)
        )

    def test_rejects_empty_universe(self):
        with pytest.raises(ReductionError):
            sc_to_mc3_theorem52([], [])

    def test_rejects_unknown_elements(self):
        with pytest.raises(ReductionError):
            sc_to_mc3_theorem52([["zz"]], ["e0"])
