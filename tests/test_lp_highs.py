"""The LP arm through ``milp`` equals the ``linprog`` path it replaced.

:class:`repro.setcover.lp.LPRelaxation` hands HiGHS the model
``linprog(method="highs")`` did, so every LP answer must match a
test-local copy of the old ``linprog`` code bit for bit: the fractional
``x``, the rounded set ids, the ``float.hex`` of the lower bound, and
the optimum ``exact_wsc_lp`` finds with ``linprog`` node solves.  The
drawn instances lean on the cases where a difference in model or
options would show first: equal-cost overlapping sets (degenerate LPs
with several optimal vertices), zero-cost sets, a one-element universe
and frequencies up to 5.
"""

import ast
import pathlib
from typing import Dict, Optional, Tuple
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import repro
from repro.reductions import mc3_to_wsc
from repro.setcover import (
    WSCInstance,
    exact_wsc_lp,
    lp_lower_bound,
    lp_relaxation,
    lp_rounding_wsc,
)
from tests.strategies import mc3_instances
from tests.test_setcover import build

MAX_FREQUENCY = 5


def linprog_model(instance: WSCInstance):
    """Costs, ``A_ub`` and ``b_ub`` exactly as the old code built them."""
    rows, cols = [], []
    for set_id in range(instance.num_sets):
        for element_id in instance.set_members(set_id):
            rows.append(element_id)
            cols.append(set_id)
    matrix = sparse.csr_matrix(
        (-np.ones(len(rows)), (np.array(rows), np.array(cols))),
        shape=(instance.universe_size, instance.num_sets),
    )
    costs = np.array([instance.set_cost(s) for s in range(instance.num_sets)])
    return costs, matrix, -np.ones(instance.universe_size)


def linprog_relaxation(instance: WSCInstance) -> np.ndarray:
    instance.validate_coverable()
    costs, matrix, rhs = linprog_model(instance)
    result = linprog(c=costs, A_ub=matrix, b_ub=rhs, bounds=(0.0, 1.0), method="highs")
    assert result.success, result.message
    return result.x


class LinprogNodeLP:
    """``exact_lp._NodeLP`` as it was: one ``linprog`` call per node."""

    def __init__(self, instance: WSCInstance):
        self.costs, self.matrix, self.rhs = linprog_model(instance)

    def solve(self, fixed: Dict[int, int]) -> Optional[Tuple[float, np.ndarray]]:
        lower = np.zeros(len(self.costs))
        upper = np.ones(len(self.costs))
        for set_id, value in fixed.items():
            lower[set_id] = upper[set_id] = float(value)
        result = linprog(
            c=self.costs,
            A_ub=self.matrix,
            b_ub=self.rhs,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        if not result.success:
            return None
        return float(result.fun), result.x


@st.composite
def degenerate_wsc(draw) -> WSCInstance:
    """Overlapping sets priced from a palette of at most three costs
    (0 included), every element in 1 to ``MAX_FREQUENCY`` sets."""
    universe = draw(st.integers(min_value=1, max_value=8))
    num_sets = draw(st.integers(min_value=1, max_value=10))
    palette = draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=3)
    )
    members = [[] for _ in range(num_sets)]
    for element in range(universe):
        frequency = draw(st.integers(1, min(MAX_FREQUENCY, num_sets)))
        holders = draw(
            st.lists(
                st.integers(0, num_sets - 1),
                min_size=frequency,
                max_size=frequency,
                unique=True,
            )
        )
        for set_id in holders:
            members[set_id].append(f"e{element}")
    instance = WSCInstance()
    for set_id, elements in enumerate(members):
        if elements:
            instance.add_set(f"s{set_id}", elements, draw(st.sampled_from(palette)))
    return instance


#: Equal costs and a fractional optimum (every vertex of the 5-cycle at
#: 1/2), so branch-and-bound branches.
ODD_CYCLE = build(
    [(["e01", "e40"], 1), (["e01", "e12"], 1), (["e12", "e23"], 1),
     (["e23", "e34"], 1), (["e34", "e40"], 1)]
)
ONE_ELEMENT = build([(["a"], 1), (["a"], 1), (["a"], 0), (["a"], 1), (["a"], 0)])
FIVE_FOLD = build([(["a", "b"], 2), (["a"], 1), (["a", "c"], 2), (["a", "b", "c"], 3),
                   (["a", "c"], 2), (["b", "c"], 2)])


def assert_same_lp_answers(instance: WSCInstance) -> None:
    reference = linprog_relaxation(instance)
    x = lp_relaxation(instance)
    assert np.array_equal(x, reference)
    assert x.tobytes() == reference.tobytes()  # signed zeros too
    with mock.patch("repro.setcover.lp.lp_relaxation", linprog_relaxation):
        old = {prune: lp_rounding_wsc(instance, prune=prune) for prune in (False, True)}
        old_bound = lp_lower_bound(instance)
    for prune, solution in old.items():
        new = lp_rounding_wsc(instance, prune=prune)
        assert new.set_ids == solution.set_ids
        assert new.cost.hex() == solution.cost.hex()
        assert new.lower_bound.hex() == solution.lower_bound.hex()
    assert lp_lower_bound(instance).hex() == old_bound.hex()


def assert_same_exact_answer(instance: WSCInstance) -> None:
    with mock.patch("repro.setcover.exact_lp._NodeLP", LinprogNodeLP):
        old = exact_wsc_lp(instance)
    new = exact_wsc_lp(instance)
    assert new.set_ids == old.set_ids
    assert new.cost.hex() == old.cost.hex()


class TestAgainstLinprog:
    @given(degenerate_wsc())
    @settings(max_examples=150, deadline=None)
    @example(ODD_CYCLE)
    @example(ONE_ELEMENT)
    @example(FIVE_FOLD)
    def test_relaxation_rounding_and_bound(self, instance):
        assert_same_lp_answers(instance)

    @given(degenerate_wsc())
    @settings(max_examples=60, deadline=None)
    @example(ODD_CYCLE)
    @example(ONE_ELEMENT)
    @example(FIVE_FOLD)
    def test_exact_lp_branch_and_bound(self, instance):
        assert_same_exact_answer(instance)

    @given(mc3_instances(max_queries=5))
    @settings(max_examples=40, deadline=None)
    def test_wsc_images_of_mc3_instances(self, instance):
        wsc = mc3_to_wsc(instance)
        assert_same_lp_answers(wsc)
        assert_same_exact_answer(wsc)

    def test_the_drawn_shapes_occur(self):
        assert ONE_ELEMENT.universe_size == 1
        assert FIVE_FOLD.frequency() == MAX_FREQUENCY
        assert len(set(ODD_CYCLE.set_costs())) == 1


def test_no_module_reaches_linprog():
    """Neither ``from scipy.optimize import linprog`` nor
    ``scipy.optimize.linprog``: no path back to it is left."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and any(
                alias.name == "linprog" for alias in node.names
            )
            if imported or (isinstance(node, ast.Attribute) and node.attr == "linprog"):
                offenders.append(str(path.relative_to(root)))
    assert offenders == []
