"""Cross-module invariant tests (hypothesis-driven).

These fuzz the whole pipeline at once: random instance → every solver →
the relations that must always hold between their outputs, plus
idempotence/consistency properties of preprocessing and the reductions.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoverageChecker, MC3Instance, UniformCost
from repro.core.properties import classifier_sort_key
from repro.extensions import instance_guarantee
from repro.preprocess import preprocess
from repro.reductions import mc3_to_wsc
from repro.setcover import exact_wsc
from repro.solvers import GeneralSolver, make_solver
from tests.conftest import brute_force_optimum, random_instance

SEEDS = st.integers(min_value=0, max_value=10_000)

#: Relative tolerance for any check involving the LP optimum LP*, which
#: HiGHS returns up to round-off.  Certified bounds are checked exactly.
LP_TOLERANCE = 1e-6


def solved_components(instance, **solver_kwargs):
    """``(component, details, cost)`` for each residual component, solved
    by Algorithm 3 the way the engine dispatches it."""
    solver = GeneralSolver(cache="off", **solver_kwargs)
    for component in preprocess(instance).components:
        classifiers, details = solver.solve_component(component)
        cost = sum(
            component.weight(clf)
            for clf in sorted(classifiers, key=classifier_sort_key)
        )
        yield component, details, cost


def assert_bound_below(details, value):
    """A component's bound never exceeds ``value`` (its cost, or OPT)."""
    if details["certified"]:
        assert details["lower_bound"] == value
    else:
        assert details["lower_bound"] <= value * (1 + LP_TOLERANCE)


class TestSolverRelations:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_exact_lower_bounds_everything(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        exact = make_solver("exact").solve(instance).cost
        for name in ("mc3-general", "short-first", "local-greedy",
                     "query-oriented", "property-oriented"):
            cost = make_solver(name).solve(instance).cost
            assert cost >= exact - 1e-9, f"{name} beat the optimum"

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_general_within_guarantee(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=4)
        exact = make_solver("exact").solve(instance).cost
        general = make_solver("mc3-general").solve(instance).cost
        assert general <= instance_guarantee(instance) * exact + 1e-6

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_query_oriented_upper_bounds_general(self, seed):
        """QO is feasible, so QO >= OPT, and Algorithm 3 stays within
        the instance guarantee of OPT — hence general <= guarantee * QO.
        (The tighter `general <= QO` is *not* a theorem: greedy/LP can
        diverge from the per-query composition, and seeds exist where
        general exceeds QO outright.)"""
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        general = make_solver("mc3-general").solve(instance).cost
        qo = make_solver("query-oriented").solve(instance).cost
        assert general <= instance_guarantee(instance) * qo + 1e-6

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_all_solutions_feasible_by_independent_checker(self, seed):
        instance = random_instance(seed, num_properties=7, num_queries=6, max_length=3)
        checker = CoverageChecker(instance.queries)
        for name in ("mc3-general", "short-first", "local-greedy", "exact"):
            solution = make_solver(name).solve(instance).solution
            assert checker.all_covered(solution.classifiers)


class TestLowerBoundInvariants:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_bound_below_cost(self, seed):
        instance = random_instance(seed, num_properties=7, num_queries=6, max_length=4)
        for _, details, cost in solved_components(instance):
            assert_bound_below(details, cost)
        result = GeneralSolver(cache="off").solve(instance)
        summary = result.details["engine"]["lower_bound"]
        assert summary["bounded"] == summary["components"]
        assert summary["value"] <= result.cost * (1 + LP_TOLERANCE)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_bound_below_optimum(self, seed):
        instance = random_instance(seed, num_properties=5, num_queries=3, max_length=3)
        for component, details, _ in solved_components(instance):
            optimum = exact_wsc(mc3_to_wsc(component)).cost
            if details["certified"]:
                assert details["lower_bound"] == optimum
            else:
                assert details["lower_bound"] <= optimum * (1 + LP_TOLERANCE)
        summary = GeneralSolver(cache="off").solve(instance).details["engine"]
        opt = brute_force_optimum(instance)
        assert summary["lower_bound"]["value"] <= opt * (1 + LP_TOLERANCE)

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_lp_arm_within_guarantee_of_lp_optimum(self, seed):
        """Where the LP ran, the bound is LP* and the kept cover is within
        min(H_Δ, f) of it: greedy is within H_Δ, rounding within f."""
        instance = random_instance(
            seed, num_properties=7, num_queries=6, max_length=4, cost_range=(1, 9)
        )
        for component, details, cost in solved_components(instance):
            if details["f_mode"] != "lp":
                continue
            wsc = mc3_to_wsc(component)
            harmonic = sum(1.0 / i for i in range(1, wsc.degree() + 1))
            factor = min(harmonic, wsc.frequency())
            assert cost <= factor * details["lower_bound"] * (1 + LP_TOLERANCE)


class TestPreprocessingInvariants:
    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_idempotent_on_residual(self, seed):
        """Re-preprocessing a residual component selects nothing new and
        removes nothing that changes its solution cost."""
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        prep = preprocess(instance)
        for component in prep.components:
            again = preprocess(component)
            before = make_solver("exact").solve(component).cost
            after = again.base_cost + sum(
                make_solver("exact").solve(c).cost for c in again.components
            )
            assert after == pytest.approx(before)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_forced_classifiers_have_finite_original_weight(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        prep = preprocess(instance)
        for clf in prep.forced:
            assert math.isfinite(instance.weight(clf))

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_residual_queries_uncovered_by_forced(self, seed):
        """Every query left in a residual component is genuinely not
        covered by the forced selections alone."""
        from repro.core import is_covered

        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        prep = preprocess(instance)
        for component in prep.components:
            for q in component.queries:
                assert not is_covered(q, prep.forced)

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_removed_classifiers_unnecessary(self, seed):
        """Solving while honouring the removals yields the same optimum
        as solving without them — removals are truly redundant."""
        instance = random_instance(seed, num_properties=5, num_queries=4, max_length=3)
        baseline = make_solver("exact", preprocess_steps=()).solve(instance).cost
        prepped = make_solver("exact").solve(instance).cost
        assert prepped == pytest.approx(baseline)


class TestReductionInvariants:
    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_wsc_reduction_element_count(self, seed):
        """|U| equals the total query length (Section 5.2's n̂)."""
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        wsc = mc3_to_wsc(instance)
        assert wsc.universe_size == sum(len(q) for q in instance.queries)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_wsc_sets_respect_membership_rule(self, seed):
        """Element (x, q) ∈ set S iff x ∈ S and S ⊆ q."""
        instance = random_instance(seed, num_properties=5, num_queries=4, max_length=3)
        wsc = mc3_to_wsc(instance)
        queries = list(instance.queries)
        for set_id in range(wsc.num_sets):
            clf = wsc.set_label(set_id)
            for element_id in wsc.set_members(set_id):
                prop, query_index = wsc.element_label(element_id)
                assert prop in clf
                assert clf <= queries[query_index]
