"""The plan memo's whole-group granularity.

A re-plan replays each step-2 group the previous plan stored, forced
classifiers, report counts and solved components included, and runs
steps 3 and 4, coverage, decomposition and the solve only for the
groups that changed (docs/algorithms.md §2).  With the cache on, every
plan must equal a cache-off solve of the same window: classifiers,
cost bits, ``details["preprocess"]``, the component count and order,
``details["wins"]`` and the engine's lower bound.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost
from repro.core.properties import iter_nonempty_subsets
from repro.datasets import bestbuy_like
from repro.engine import ResiliencePolicy, SolveEngine
from repro.engine.cache import MemorySolutionCache
from repro.exceptions import SolverError
from repro.preprocess import ALL_STEPS
from repro.solvers import make_solver

NAMES = [f"p{i}" for i in range(8)]

#: Two solvers whose cache tokens differ and whose answers do too.
METHODS = ("best_of", "primal_dual")


def signature(result):
    """Everything a plan returns that must not depend on the memo."""
    details = result.details
    preprocess = dict(details["preprocess"])
    preprocess.pop("elapsed_seconds")
    engine = details["engine"]
    bound = engine["lower_bound"]
    return (
        sorted(sorted(clf) for clf in result.solution.classifiers),
        result.cost.hex(),
        preprocess,
        details["components"],
        engine["component_sizes"],
        details.get("wins"),
        float(bound["value"]).hex(),
        bound["bounded"],
    )


weights = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def drifting_loads(draw):
    """Windows slid over one query log, with singleton queries woven in
    (one arriving or leaving flips its property free), zero and missing
    weights, a length cap, a step subset, a job count, and which of the
    two solvers plans each window, in order."""
    query = st.frozensets(st.sampled_from(NAMES), min_size=2, max_size=4)
    log: List[FrozenSet[str]] = draw(st.lists(query, min_size=3, max_size=12, unique=True))
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True)):
        log.insert(draw(st.integers(0, len(log))), frozenset({name}))
    table: Dict[FrozenSet[str], float] = {}
    for q in log:
        for clf in iter_nonempty_subsets(q):
            if clf in table:
                continue
            if len(clf) > 1 and draw(st.integers(0, 4)) == 0:
                continue  # never priced: weight infinity
            table[clf] = draw(weights)
    cost = TableCost(table, default=math.inf)
    cap = draw(st.sampled_from([None, None, 2, 3]))
    size = draw(st.integers(min_value=2, max_value=len(log)))
    step = draw(st.integers(min_value=1, max_value=2))
    windows = [
        MC3Instance(log[start : start + size], cost, max_classifier_length=cap)
        for start in range(0, len(log) - size + 1, step)
    ]
    windows.append(windows[-1])  # an unchanged re-plan replays every group
    planners = [
        draw(st.lists(st.sampled_from(range(len(METHODS))), min_size=1, max_size=3))
        for _ in windows
    ]
    steps = draw(
        st.sampled_from([ALL_STEPS, ALL_STEPS, (1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 2), ()])
    )
    jobs = draw(st.sampled_from([1, 1, 1, 2]))
    return windows, planners, steps, jobs


def window_log():
    """Four windows of a small BestBuy-like log; the last two are equal."""
    base = bestbuy_like(n=240, seed=3)
    log = list(base.queries)
    return [
        MC3Instance(log[start : start + 160], base.cost, name=f"w{start}")
        for start in (0, 20, 40, 40)
    ]


class TestEquivalence:
    @given(drifting_loads())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_cache_on_equals_cache_off(self, load):
        windows, planners, steps, jobs = load
        store = MemorySolutionCache()

        def solvers(cache):
            return [
                make_solver(
                    "mc3-general", cache=cache, wsc_method=method,
                    preprocess_steps=steps, jobs=jobs,
                )
                for method in METHODS
            ]

        served, plain = solvers(store), solvers("off")
        for instance, order in zip(windows, planners):
            for side in order:
                assert signature(served[side].solve(instance)) == signature(
                    plain[side].solve(instance)
                )

    def test_singleton_arriving_frees_a_property(self):
        # {b} arrives and step 1 buys it: b is free from then on, and the
        # group {ab, bc}, whose queries are unchanged, must be solved
        # again ({a}, {c} instead of {ab}, {bc}).
        cost = TableCost(
            {"a": 1, "b": 5, "c": 1, "a b": 3, "b c": 3}, default=math.inf
        )
        before = MC3Instance(["a b", "b c"], cost)
        after = MC3Instance(["a b", "b c", "b"], cost)
        store = MemorySolutionCache()
        served = make_solver("mc3-general", cache=store)
        plain = make_solver("mc3-general", cache="off")
        costs = []
        for instance in (before, before, after):
            result = served.solve(instance)
            assert signature(result) == signature(plain.solve(instance))
            costs.append(result.cost)
        assert result.details["engine"]["cache"]["group_hits"] == 0
        assert costs == [6.0, 6.0, 7.0]

    def test_solvers_sharing_a_store_never_replay_each_other(self):
        store = MemorySolutionCache()
        served = [make_solver("mc3-general", cache=store, wsc_method=m) for m in METHODS]
        plain = [make_solver("mc3-general", cache="off", wsc_method=m) for m in METHODS]
        for instance in window_log():
            for side in (0, 0, 1):
                result = served[side].solve(instance)
                assert signature(result) == signature(plain[side].solve(instance))
            # The second solver's plan follows the first one's: its
            # groups recur and are keyed, but under another token.
            assert result.details["engine"]["cache"]["group_hits"] == 0

    def test_jobs_two_replays_in_the_parent(self):
        spec_store = MemorySolutionCache()
        pooled = make_solver("mc3-general", cache=spec_store, jobs=2)
        plain = make_solver("mc3-general", cache="off")
        for instance in window_log():
            result = pooled.solve(instance)
            assert signature(result) == signature(plain.solve(instance))
        section = result.details["engine"]["cache"]
        assert section["group_hits"] > 0
        assert result.details["engine"]["resilience"]["failures"] == 0


class TestScope:
    def test_first_plan_keys_nothing_and_an_equal_replan_solves_nothing(self):
        store = MemorySolutionCache()
        solver = make_solver("mc3-general", cache=store)
        instance = window_log()[0]
        first = solver.solve(instance).details["engine"]["cache"]
        assert first["group_hits"] == 0
        # Its queries were all new, so the first plan stored no group.
        groups = solver.solve(instance).details["engine"]["cache"]
        assert groups["group_hits"] == 0 and groups["group_misses"] > 0
        replay = solver.solve(instance)
        section = replay.details["engine"]["cache"]
        assert section["group_hits"] == groups["group_misses"]
        assert section["group_misses"] == 0
        # Nothing left to preprocess, fingerprint or look up.
        assert section["step3_hits"] == section["step3_misses"] == 0
        assert section["hits"] == section["misses"] == 0
        assert replay.details["engine"]["component_seconds"] == [0.0] * (
            replay.details["components"]
        )

    def test_memo_holds_only_the_last_plan(self):
        store = MemorySolutionCache()
        solver = make_solver("mc3-general", cache=store)
        first, second = bestbuy_like(n=120, seed=1), bestbuy_like(n=120, seed=5)
        for instance in (first, first, second, second, second):
            section = solver.solve(instance).details["engine"]["cache"]
        assert section["group_hits"] > 0
        # Back on the first load, the memo carries over what a memo that
        # only ever saw the second load would: nothing older is left.
        fresh = make_solver("mc3-general", cache=MemorySolutionCache())
        for instance in (second, second):
            fresh.solve(instance)
        expected = fresh.solve(first).details["engine"]["cache"]
        section = solver.solve(first).details["engine"]["cache"]
        assert section["group_hits"] == expected["group_hits"]
        assert section["carried_components"] == expected["carried_components"]
        assert store.clear() > 0
        assert solver.solve(first).details["engine"]["cache"]["group_hits"] == 0

    def test_unclean_components_are_never_stored(self):
        class FlakyOnce:
            """Fails each component's first attempt in a run."""

            name = "flaky"

            def __init__(self):
                self.seen = set()

            def cache_token(self):
                return ("flaky", 1)

            def solve_component(self, component):
                if component.queries not in self.seen:
                    self.seen.add(component.queries)
                    raise SolverError("first attempt fails")
                return {frozenset(q) for q in component.queries}, {}

        store = MemorySolutionCache()
        engine = SolveEngine(cache=store, resilience=ResiliencePolicy(max_retries=1))
        solver = FlakyOnce()
        instance = window_log()[0]
        for _ in range(3):
            solver.seen.clear()
            _, details = engine.run(instance, solver)
        section = details["engine"]["cache"]
        # Only the groups preprocessing covered whole, with no component
        # to retry, were stored and replayed.
        assert section["group_hits"] > 0 and section["group_misses"] > 0
        # Every component of the last run was solved in it: none came
        # back with a replayed group or carried on its own.
        assert len(solver.seen) == details["components"]
        assert section["carried_components"] == section["inserts"] == 0

    def test_uncacheable_solver_memoises_sub_groups_only(self):
        class Plain:
            name = "plain"

            def solve_component(self, component):
                return {frozenset(q) for q in component.queries}, {}

        store = MemorySolutionCache()
        engine = SolveEngine(cache=store)
        for instance in window_log():
            _, details = engine.run(instance, Plain())
        section = details["engine"]["cache"]
        assert section["group_hits"] == section["group_misses"] == 0
        assert section["step3_hits"] > 0


@pytest.mark.parametrize("steps", [ALL_STEPS, (1, 2, 3)])
def test_report_counts_replay_exactly(steps):
    store = MemorySolutionCache()
    served = make_solver("mc3-general", cache=store, preprocess_steps=steps)
    plain = make_solver("mc3-general", cache="off", preprocess_steps=steps)
    for instance in window_log():
        result = served.solve(instance)
        assert signature(result) == signature(plain.solve(instance))
    assert result.details["engine"]["cache"]["group_hits"] > 0
