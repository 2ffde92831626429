"""Drift re-plans carry the previous plan's untouched parts over.

The plan memo keeps the last plan's stored step-2 groups and its clean
residual components, each by first query; a re-plan carries a part
over when it has the same queries in the same order and nothing its
key or fingerprint would pin has moved (docs/algorithms.md §2).  Whatever
is carried, every plan must equal a cache-off solve of its window:
classifiers, cost bits, the engine's lower bound and
``details["preprocess"]`` without times — also when a length-1 query
enters and leaves (its property turns free and back), when the cost
model is swapped between two plans or edited in place, and when a
window is reordered.
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost
from repro.core.costs import OverlayCost
from repro.core.properties import iter_nonempty_subsets
from repro.datasets import bestbuy_like
from repro.engine.cache import MemorySolutionCache
from repro.preprocess import preprocess
from repro.solvers import make_solver

NAMES = [f"p{i}" for i in range(9)]


def signature(result):
    preprocess = dict(result.details["preprocess"])
    preprocess.pop("elapsed_seconds")
    bound = result.details["engine"]["lower_bound"]
    return (
        sorted(sorted(clf) for clf in result.solution.classifiers),
        result.cost.hex(),
        float(bound["value"]).hex(),
        bound["bounded"],
        preprocess,
        result.details["components"],
    )


def priced(draw, log: List[FrozenSet[str]]) -> TableCost:
    table: Dict[FrozenSet[str], float] = {}
    for q in log:
        for clf in iter_nonempty_subsets(q):
            if clf in table:
                continue
            if len(clf) > 1 and draw(st.integers(0, 4)) == 0:
                continue  # never priced: weight infinity
            table[clf] = float(draw(st.integers(min_value=0, max_value=9)))
    return TableCost(table, default=math.inf)


@st.composite
def churning_windows(draw):
    """Windows slid over a log in which a singleton query arrives and
    leaves again; one window priced by a second table, one reordered."""
    query = st.frozensets(st.sampled_from(NAMES), min_size=2, max_size=4)
    log: List[FrozenSet[str]] = draw(st.lists(query, min_size=6, max_size=16, unique=True))
    singleton = frozenset({draw(st.sampled_from(NAMES))})
    log.insert(draw(st.integers(2, len(log) - 2)), singleton)
    first, second = priced(draw, log), priced(draw, log)
    cap = draw(st.sampled_from([None, None, 3]))
    size = draw(st.integers(min_value=3, max_value=len(log) - 2))
    costs = [first] * (len(log) - size + 1)
    swapped = draw(st.integers(0, len(costs) - 1))
    costs[swapped] = second
    windows = []
    for start, cost in enumerate(costs):
        queries = log[start : start + size]
        windows.append(MC3Instance(queries, cost, max_classifier_length=cap))
    shuffled = draw(st.integers(0, len(windows) - 1))
    windows.insert(
        shuffled + 1,
        MC3Instance(
            draw(st.permutations(windows[shuffled].queries)),
            windows[shuffled].cost,
            max_classifier_length=cap,
        ),
    )
    windows.append(windows[-1])
    return windows


class TestCarriedReplans:
    @given(churning_windows())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_memo_on_equals_memo_off(self, windows):
        served = make_solver("mc3-general", cache=MemorySolutionCache())
        plain = make_solver("mc3-general", cache="off")
        for instance in windows:
            assert signature(served.solve(instance)) == signature(plain.solve(instance))

    def test_slid_bestbuy_windows_carry_groups_and_components(self):
        base = bestbuy_like(n=400, seed=2)
        log = list(base.queries)
        swapped = TableCost(
            {clf: base.cost.cost(clf) * 1.5 for q in log for clf in iter_nonempty_subsets(q)},
            default=math.inf,
        )
        windows = [
            MC3Instance(log[start : start + 300], base.cost) for start in range(0, 80, 10)
        ]
        windows[5] = MC3Instance(windows[5].queries, swapped)
        windows.insert(3, MC3Instance(list(reversed(windows[2].queries)), base.cost))
        served = make_solver("mc3-general", cache=MemorySolutionCache())
        plain = make_solver("mc3-general", cache="off")
        carried_groups = carried_components = 0
        for instance in windows:
            result = served.solve(instance)
            assert signature(result) == signature(plain.solve(instance))
            section = result.details["engine"]["cache"]
            assert section["carried_components"] <= section["hits"]
            carried_groups += section["group_hits"]
            carried_components += section["carried_components"]
        assert carried_groups > 0 and carried_components > 0


def test_a_component_is_not_served_across_query_orders():
    """The LP arm's lower bound can depend on a component's query order
    (a degenerate relaxation returns other duals), while the component
    fingerprint does not: the cache must not serve one order's outcome
    to the other.  These two orders of one load differ in the bound's
    last bits."""
    base = bestbuy_like(n=400, seed=2)
    queries = list(base.queries)
    rng = random.Random(0)
    for _ in range(28):
        load = rng.sample(queries, 120)
        shuffled = load[:]
        rng.shuffle(shuffled)
    first, second = MC3Instance(load, base.cost), MC3Instance(shuffled, base.cost)
    plain = make_solver("mc3-general", cache="off")
    assert signature(plain.solve(first))[2] != signature(plain.solve(second))[2]
    served = make_solver("mc3-general", cache=MemorySolutionCache())
    served.solve(first)
    assert signature(served.solve(second)) == signature(plain.solve(second))


@pytest.mark.parametrize("edit", ["select", "remove"])
def test_a_cost_model_changed_in_place_is_not_carried_over(edit):
    """A caller's :class:`OverlayCost` edited between two plans of the
    same window: a component kept from the first plan must be priced as
    it was solved, not as the model reads now."""
    base = bestbuy_like(n=300, seed=4)
    served_cost, plain_cost = OverlayCost(base.cost), OverlayCost(base.cost)
    window = list(base.queries)[:200]
    served = make_solver("mc3-general", cache=MemorySolutionCache())
    plain = make_solver("mc3-general", cache="off")
    first = served.solve(MC3Instance(window, served_cost))
    assert signature(first) == signature(plain.solve(MC3Instance(window, plain_cost)))
    # Edit classifiers the first plan's residual components chose.
    prep = preprocess(MC3Instance(window, served_cost))
    chosen = sorted(
        (
            clf
            for clf in first.solution.classifiers - prep.forced
            if any(clf <= component.properties for component in prep.components)
        ),
        key=sorted,
    )
    assert chosen
    for cost in (served_cost, plain_cost):
        for clf in chosen:
            getattr(cost, edit)(clf)
    for _ in range(2):
        result = served.solve(MC3Instance(window, served_cost))
        assert signature(result) == signature(plain.solve(MC3Instance(window, plain_cost)))


def test_a_load_without_step_2_is_carried_as_one_part():
    base = bestbuy_like(n=300, seed=2)
    log = list(base.queries)
    steps = (1, 3, 4)
    served = make_solver("mc3-general", cache=MemorySolutionCache(), preprocess_steps=steps)
    plain = make_solver("mc3-general", cache="off", preprocess_steps=steps)
    windows = [MC3Instance(log[start : start + 200], base.cost) for start in (0, 0, 0, 20)]
    sections = []
    for instance in windows:
        result = served.solve(instance)
        assert signature(result) == signature(plain.solve(instance))
        sections.append(result.details["engine"]["cache"])
    # The second plan stores the one group, the third carries it over.
    assert sections[2]["group_hits"] == 1 and sections[2]["group_misses"] == 0
    assert sections[3]["group_hits"] == 0
