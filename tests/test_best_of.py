"""Algorithm 3's best-of strategy with the greedy optimality certificate.

The certificate skips the f-approximation arm only where that arm could
not change the answer, so :func:`best_of_wsc` must stay bit-identical —
same sets, same ``float.hex`` cost — to running both arms every time.
These tests compare it against a test-local always-both-arms reference
on integer costs (where the certificate fires) and on tenths and random
floats (where it must decline), and pin the branch-and-bound oracle the
certificate shares against the search as it was before the share bound.
"""

from __future__ import annotations

import math
from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.solvers.general as general_module
from repro.core import MC3Instance, TableCost
from repro.core.properties import iter_nonempty_subsets
from repro.preprocess import preprocess
from repro.setcover import (
    BestOf,
    WSCInstance,
    WSCSolution,
    best_of_wsc,
    certify_optimal,
    exact_wsc,
    greedy_wsc,
    lp_nonzeros,
    lp_rounding_wsc,
    primal_dual_wsc,
    solve_wsc,
)
from repro.solvers import GeneralSolver
from tests.strategies import PROPERTY_NAMES
from tests.test_setcover import random_wsc

# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def both_arms(instance: WSCInstance, lp_size_limit=2_000_000, prune=False) -> WSCSolution:
    """Algorithm 3 lines 3–5 with no skip: greedy and the f arm, always."""
    greedy_solution = greedy_wsc(instance)
    if lp_size_limit is not None and lp_nonzeros(instance) > lp_size_limit:
        f_solution = primal_dual_wsc(instance, prune=prune)
    else:
        f_solution = lp_rounding_wsc(instance, prune=prune)
    return greedy_solution if greedy_solution.cost <= f_solution.cost else f_solution


def exact_wsc_before_share_bound(instance: WSCInstance) -> WSCSolution:
    """The branch-and-bound oracle with its earlier ``max_e min c_s``
    bound, kept verbatim as the reference for the search order."""
    universe = instance.universe_size
    members = [instance.set_members(s) for s in range(instance.num_sets)]
    costs = [instance.set_cost(s) for s in range(instance.num_sets)]
    containing = [instance.sets_containing(e) for e in range(universe)]
    incumbent = greedy_wsc(instance)
    best_cost = incumbent.cost
    best_sets: Tuple[int, ...] = incumbent.set_ids
    cover_count = [0] * universe
    chosen: List[int] = []

    def bound() -> float:
        value = 0.0
        for element in range(universe):
            if cover_count[element] == 0:
                value = max(value, min(costs[s] for s in containing[element]))
        return value

    def branch_element():
        best_element, best_options = None, math.inf
        for element in range(universe):
            if cover_count[element] == 0 and len(containing[element]) < best_options:
                best_element, best_options = element, len(containing[element])
        return best_element

    def descend(current: float) -> None:
        nonlocal best_cost, best_sets
        if current + bound() >= best_cost - 1e-12:
            return
        element = branch_element()
        if element is None:
            best_cost, best_sets = current, tuple(chosen)
            return
        for set_id in sorted(containing[element], key=lambda s: costs[s]):
            chosen.append(set_id)
            for member in members[set_id]:
                cover_count[member] += 1
            descend(current + costs[set_id])
            for member in members[set_id]:
                cover_count[member] -= 1
            chosen.pop()

    descend(0.0)
    pruned = instance.prune_redundant(list(best_sets))
    return WSCSolution(pruned, sum(costs[s] for s in pruned))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

COST_KINDS = {
    "integer": st.integers(min_value=1, max_value=20).map(float),
    "tenths": st.integers(min_value=1, max_value=200).map(lambda k: k / 10),
    "float": st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
}


@st.composite
def wsc_components(draw, kind: str) -> WSCInstance:
    """A coverable WSC instance: a unit set per element, then random
    sets over the same elements."""
    costs = COST_KINDS[kind]
    num_elements = draw(st.integers(min_value=1, max_value=9))
    elements = [f"e{i}" for i in range(num_elements)]
    instance = WSCInstance()
    for element in elements:
        instance.add_set(("unit", element), [element], draw(costs))
    num_sets = draw(st.integers(min_value=0, max_value=10))
    for index in range(num_sets):
        members = draw(
            st.lists(st.sampled_from(elements), min_size=1, max_size=num_elements, unique=True)
        )
        instance.add_set(("set", index), members, draw(costs))
    return instance


def non_integer(instance: WSCInstance) -> bool:
    return not all(cost.is_integer() for cost in instance.set_costs())


@st.composite
def mc3_components(draw, kind: str) -> MC3Instance:
    """An MC³ instance over 6 properties with every classifier priced
    from the given cost kind."""
    query_sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(PROPERTY_NAMES[:6]), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    table = {}
    for q in sorted(query_sets, key=sorted):
        for clf in iter_nonempty_subsets(q):
            if clf not in table:
                table[clf] = draw(COST_KINDS[kind])
    return MC3Instance(sorted(query_sets, key=sorted), TableCost(table))


# ----------------------------------------------------------------------
# Bit identity
# ----------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("kind", sorted(COST_KINDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_both_arms(self, kind, data):
        instance = data.draw(wsc_components(kind))
        expected = both_arms(instance)
        got = best_of_wsc(instance)
        assert got.solution.set_ids == expected.set_ids
        assert got.solution.cost.hex() == expected.cost.hex()

    @pytest.mark.parametrize("kind", sorted(COST_KINDS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_general_solver_matches_both_arms(self, kind, data):
        instance = data.draw(mc3_components(kind))

        def reference(wsc, lp_size_limit, prune, **arms):
            return BestOf(both_arms(wsc, lp_size_limit, prune), "greedy", "lp", False)

        got = GeneralSolver(cache="off").solve(instance)
        with mock.patch.object(general_module, "best_of_wsc", reference):
            expected = GeneralSolver(cache="off").solve(instance)
        assert got.solution.classifiers == expected.solution.classifiers
        assert got.cost.hex() == expected.cost.hex()

    def test_lp_size_limit_zero_uses_primal_dual(self):
        for seed in range(20):
            instance = random_wsc(seed)
            got = best_of_wsc(instance, lp_size_limit=0)
            expected = both_arms(instance, lp_size_limit=0)
            assert got.solution.set_ids == expected.set_ids
            assert got.f_mode in (None, "primal_dual")

    def test_solve_wsc_is_best_of(self):
        instance = random_wsc(17)
        assert solve_wsc(instance, "best_of").set_ids == best_of_wsc(instance).solution.set_ids


# ----------------------------------------------------------------------
# The certificate
# ----------------------------------------------------------------------


class TestCertificate:
    @pytest.mark.parametrize("kind", sorted(COST_KINDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_certified_means_greedy_is_optimal(self, kind, data):
        instance = data.draw(wsc_components(kind))
        result = best_of_wsc(instance)
        if result.certified:
            greedy_cost = greedy_wsc(instance).cost
            assert exact_wsc(instance).cost == greedy_cost
            assert result.winner == "greedy" and result.f_mode is None
            assert result.solution.lower_bound == greedy_cost
        if non_integer(instance):
            assert not result.certified

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_certifies_every_small_integer_instance_greedy_solves(self, seed):
        # On these sizes the node cap is never the reason for "no proof":
        # a greedy cover that is optimal gets certified.
        instance = random_wsc(seed, num_elements=5, num_sets=5)
        greedy_solution = greedy_wsc(instance)
        optimal = exact_wsc(instance).cost == greedy_solution.cost
        assert certify_optimal(instance, greedy_solution) == optimal

    def test_declines_non_integer_costs(self):
        instance = WSCInstance()
        instance.add_set("a", ["x"], 1.5)
        assert not certify_optimal(instance, greedy_wsc(instance))

    def test_declines_sums_past_exact_range(self):
        instance = WSCInstance()
        instance.add_set("a", ["x"], float(2**52))
        instance.add_set("b", ["x"], float(2**52))
        assert not certify_optimal(instance, greedy_wsc(instance))

    def test_declines_greedy_cover_that_is_not_optimal(self):
        # Greedy takes the 3-for-3 set first (ratio 1), then pays 2 more;
        # the two 2-cost pairs cover everything for 4.
        instance = WSCInstance()
        instance.add_set("big", ["a", "b", "c"], 3)
        instance.add_set("left", ["a", "d"], 2)
        instance.add_set("right", ["b", "c"], 2)
        greedy_solution = greedy_wsc(instance)
        assert greedy_solution.cost > exact_wsc(instance).cost
        assert not certify_optimal(instance, greedy_solution)


# ----------------------------------------------------------------------
# The oracle the certificate shares
# ----------------------------------------------------------------------


class TestExactSearchOrder:
    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=30, deadline=None)
    def test_same_sets_as_before_share_bound(self, seed):
        for shape in ({"num_elements": 5, "num_sets": 5}, {}):
            instance = random_wsc(seed, **shape)
            assert exact_wsc(instance).set_ids == exact_wsc_before_share_bound(instance).set_ids

    @pytest.mark.parametrize("kind", sorted(COST_KINDS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_sets_as_before_share_bound_any_costs(self, kind, data):
        instance = data.draw(wsc_components(kind))
        got = exact_wsc(instance)
        expected = exact_wsc_before_share_bound(instance)
        assert got.set_ids == expected.set_ids
        assert got.cost.hex() == expected.cost.hex()


# ----------------------------------------------------------------------
# Lower bounds through the solver
# ----------------------------------------------------------------------


class TestLowerBoundDetails:
    def test_components_report_bounds(self):
        instance = MC3Instance(
            ["a b", "c d", "a c e"],
            TableCost(
                {
                    "a": 2, "b": 3, "a b": 4, "c": 1, "d": 5, "c d": 5,
                    "e": 2, "a c": 3, "a e": 2, "c e": 2, "a c e": 6,
                }
            ),
        )
        prep = preprocess(instance)
        solver = GeneralSolver(cache="off")
        for component in prep.components:
            classifiers, details = solver.solve_component(component)
            assert isinstance(details["lower_bound"], float)
            cost = sum(component.weight(clf) for clf in sorted(classifiers, key=sorted))
            if details["certified"]:
                assert details["lower_bound"] == cost
            else:
                assert details["lower_bound"] <= cost * (1 + 1e-6)

    def test_engine_summary(self, example11):
        result = GeneralSolver(cache="off").solve(example11)
        summary = result.details["engine"]["lower_bound"]
        assert summary["components"] == result.details["components"]
        assert summary["bounded"] == summary["components"]
        assert 0 < summary["value"] <= result.cost
        assert summary["cost_ratio"] == result.cost / summary["value"]

    def test_greedy_only_method_reports_no_bound(self, example11):
        result = GeneralSolver(wsc_method="greedy", cache="off").solve(example11)
        summary = result.details["engine"]["lower_bound"]
        assert summary["bounded"] == 0 and summary["certified"] == 0

    def test_k2_route_bound_is_its_cost(self):
        instance = MC3Instance(
            ["a b", "b c", "d"],
            TableCost({"a": 1, "b": 3, "c": 1, "a b": 3, "b c": 3, "d": 2}),
        )
        result = GeneralSolver(dispatch_k2=True, cache="off").solve(instance)
        summary = result.details["engine"]["lower_bound"]
        assert result.details["k2_dispatched"] >= 1
        assert summary["value"] == result.cost
