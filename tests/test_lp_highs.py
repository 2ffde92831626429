"""The LP arm, calling HiGHS directly, equals the ``linprog`` path it replaced.

:class:`repro.setcover.lp.LPRelaxation` hands HiGHS the model
``linprog(method="highs")`` did, so every LP answer must match a
test-local copy of the old ``linprog`` code bit for bit: the fractional
``x``, the rounded set ids, the ``float.hex`` of the lower bound (from
the row duals, ``linprog``'s ``ineqlin.marginals``), and the optimum
``exact_wsc`` finds with ``linprog`` node solves.  The
drawn instances lean on the cases where a difference in model or
options would show first: equal-cost overlapping sets (degenerate LPs
with several optimal vertices), zero-cost sets, a one-element universe
and frequencies up to 5.
"""

import ast
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import OptimizeResult, linprog
from scipy.optimize._highspy import _core as highs

import repro
from repro.reductions import mc3_to_wsc
from repro.setcover import (
    WSCInstance,
    exact_wsc,
    lp_lower_bound,
    lp_relaxation,
    lp_rounding_wsc,
)
from repro.setcover import lp as lp_module
from repro.setcover.lp import DUAL_SCALE, LPRelaxation, dual_bound
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


def linprog_solution(instance: WSCInstance) -> OptimizeResult:
    instance.validate_coverable()
    costs, matrix, rhs = linprog_model(instance)
    result = linprog(c=costs, A_ub=matrix, b_ub=rhs, bounds=(0.0, 1.0), method="highs")
    assert result.success, result.message
    return OptimizeResult(x=result.x, duals=-result.ineqlin.marginals)


def linprog_relaxation(instance: WSCInstance) -> np.ndarray:
    return linprog_solution(instance).x


class LinprogNodeLP:
    """``exact._NodeLP`` as it was: one ``linprog`` call per node."""

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
    with mock.patch("repro.setcover.lp.solve_relaxation", linprog_solution):
        old = {prune: lp_rounding_wsc(instance, prune=prune) for prune in (False, True)}
        old_bound = lp_lower_bound(instance)
    for prune, solution in old.items():
        new = lp_rounding_wsc(instance, prune=prune)
        assert new.set_ids == solution.set_ids
        assert new.cost.hex() == solution.cost.hex()
        assert new.lower_bound.hex() == solution.lower_bound.hex()
    assert lp_lower_bound(instance).hex() == old_bound.hex()


def assert_same_exact_answer(instance: WSCInstance) -> None:
    with mock.patch("repro.setcover.exact._NodeLP", LinprogNodeLP):
        old = exact_wsc(instance)
    new = exact_wsc(instance)
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


#: One query's WSC image where HiGHS, whose reduced-cost tolerance is
#: absolute, takes both sets priced far below it: ``c·x`` is twice OPT.
TINY = 6.2192136790327965e-273
TINY_COSTS = build(
    [(["a"], 0.0), (["b"], 0.0), (["c"], 1.0), (["a", "b"], 0.0),
     (["a", "c"], TINY), (["b", "c"], TINY), (["a", "b", "c"], 1.0)]
)


class TestDualBound:
    def test_tiny_costs_stay_below_the_optimum(self):
        optimum = exact_wsc(TINY_COSTS).cost
        assert optimum == TINY
        assert lp_lower_bound(TINY_COSTS) <= optimum
        for prune in (False, True):
            assert lp_rounding_wsc(TINY_COSTS, prune=prune).lower_bound <= optimum

    def test_exact_duals_give_the_lp_optimum(self):
        for bound in (
            lp_lower_bound(ODD_CYCLE),
            dual_bound(ODD_CYCLE, np.full(ODD_CYCLE.universe_size, 0.5)),
        ):
            assert 2.5 * (1 - 2.0**-29) <= bound <= 2.5

    def test_rounds_down(self):
        instance = build([(["a"], 2), (["b"], 2)])
        y = [0.3 * DUAL_SCALE, 1.1 * DUAL_SCALE]
        exact = Fraction(y[0]) + Fraction(y[1])
        assert Fraction(math.fsum(y)) > exact  # the nearest double is above
        value = dual_bound(instance, np.array([0.3, 1.1]))
        assert Fraction(value) <= exact < Fraction(math.nextafter(value, math.inf))

    def test_float_sums_never_hide_an_excess(self):
        """The float sum of the big set's duals stays at the first one,
        a quarter ulp at a time, while the exact sum passes the set's
        cost by two ulps: the bound must still charge the excess."""
        first = DUAL_SCALE
        quarter = math.ulp(first) / 4
        cost = math.nextafter(first, 2.0)
        elements = [f"e{i}" for i in range(14)]
        instance = build([(elements, cost)] + [([e], 10.0) for e in elements])
        exact = Fraction(first) + 13 * Fraction(quarter * DUAL_SCALE)
        assert exact - Fraction(cost) > 2 * Fraction(math.ulp(cost))
        duals = np.array([1.0] + [quarter] * 13)
        assert dual_bound(instance, duals) <= exact_wsc(instance).cost == cost

    def test_sums_beyond_the_float_range_give_zero(self):
        big = 1e308
        one_set_overflows = build([(["a", "b"], big), (["a"], big), (["b"], big)])
        assert dual_bound(one_set_overflows, np.array([big, big])) == 0.0
        only_the_total_overflows = build([(["a"], big), (["b"], big)])
        assert dual_bound(only_the_total_overflows, np.array([big, big])) == 0.0

    @given(
        degenerate_wsc(),
        st.lists(st.floats(min_value=-1.0, max_value=1e3, allow_nan=False), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    @example(build([(["a", "b"], 0), (["a", "c"], 0)]), [-1.0, 1.0, 1.0])
    def test_any_duals_bound_the_optimum(self, instance, values):
        duals = np.zeros(instance.universe_size)
        size = min(len(values), instance.universe_size)
        duals[:size] = values[:size]
        bound = dual_bound(instance, duals)
        assert 0.0 <= bound <= exact_wsc(instance).cost
        # Exact weak-duality value of the same scaled duals: the float
        # excesses may only round it down, by far less than its scale.
        y = [Fraction(v) for v in (np.where(duals > 0, duals, 0.0) * DUAL_SCALE).tolist()]
        set_sums = [
            sum((y[e] for e in instance.set_members(s)), Fraction(0))
            for s in range(instance.num_sets)
        ]
        excess = sum(
            max(Fraction(0), total - Fraction(cost))
            for total, cost in zip(set_sums, instance.set_costs())
        )
        reference = max(Fraction(0), sum(y) - excess)
        assert Fraction(bound) <= reference
        assert reference - Fraction(bound) <= Fraction(1e-9) * (1 + sum(set_sums))


def _imports_scipy_optimize(node: ast.AST) -> bool:
    """Whether ``node`` imports ``scipy.optimize`` or one of its
    submodules, any of which runs ``scipy/optimize/__init__.py``."""

    def inside(name: Optional[str]) -> bool:
        return name is not None and (name + ".").startswith("scipy.optimize.")

    if isinstance(node, ast.Import):
        return any(inside(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return inside(node.module) or (
            node.module == "scipy" and any(alias.name == "optimize" for alias in node.names)
        )
    return False


def test_no_module_reaches_linprog():
    """Neither ``from scipy.optimize import linprog`` nor
    ``scipy.optimize.linprog``: no path back to it is left.  No module
    imports ``scipy.optimize`` at all: :mod:`repro.setcover.lp` loads
    only the HiGHS extension."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and any(
                alias.name == "linprog" for alias in node.names
            )
            if (
                imported
                or _imports_scipy_optimize(node)
                or (isinstance(node, ast.Attribute) and node.attr == "linprog")
            ):
                offenders.append(str(path.relative_to(root)))
    assert offenders == []


def test_scan_flags_every_scipy_optimize_import():
    flagged = [
        "import scipy.optimize",
        "import scipy.optimize as opt",
        "import scipy.optimize._highspy._core",
        "from scipy.optimize import OptimizeResult",
        "from scipy.optimize._highspy import _core",
        "from scipy import optimize",
    ]
    passed = ["import scipy", "from scipy import sparse", "import scipy.optimizer"]
    for source, expected in [(s, True) for s in flagged] + [(s, False) for s in passed]:
        (node,) = ast.parse(source).body
        assert _imports_scipy_optimize(node) is expected, source


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(repro.__file__).parents[1])]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env, check=True)


class TestStandaloneExtension:
    """:mod:`repro.setcover.lp` loads SciPy's HiGHS extension by itself:
    planning never imports ``scipy.optimize``, and the extension is one
    module object whichever of the two is imported first."""

    def test_lp_arm_solve_never_imports_scipy_optimize(self):
        run_fresh(
            """
            import sys
            import repro
            from repro.datasets import bestbuy_like
            from repro.setcover import lp

            solves = []
            solve = lp.LPRelaxation.solve

            def counting(self, *args, **kwargs):
                solves.append(1)
                return solve(self, *args, **kwargs)

            lp.LPRelaxation.solve = counting
            repro.make_solver("mc3-general").solve(bestbuy_like(60, seed=1))
            assert solves, "the LP arm did not run"
            assert "scipy.optimize" not in sys.modules
            assert sys.modules[lp.HIGHS_MODULE] is lp.highs

            import numpy as np
            import scipy.optimize
            from scipy.optimize._highspy import _core, _highs_wrapper

            assert _core is lp.highs and _highs_wrapper._h is lp.highs
            assert sys.modules["scipy.optimize._highspy._core"] is lp.highs
            answer = scipy.optimize.linprog(
                c=[1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=(0.0, 1.0)
            )
            assert answer.success and np.array_equal(answer.x, [1.0, 0.0])
            """
        )

    def test_reuses_the_module_scipy_optimize_loaded(self):
        run_fresh(
            """
            import scipy.optimize._highspy._core as core
            from repro.setcover import lp

            assert lp.highs is core
            """
        )

    def test_missing_extension_raises_import_error(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, lp_module.HIGHS_MODULE)
        monkeypatch.setattr(lp_module.scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match="no HiGHS extension"):
            lp_module._load_highs()


def fresh_handle():
    """A new HiGHS handle per solve, as :class:`LPRelaxation` once made."""
    solver = highs._Highs()
    solver.passOptions(lp_module._OPTIONS)
    return solver


def lp_answer(result) -> Tuple[object, ...]:
    """The bytes of everything a relaxation solve returns."""
    if not result.success:
        return (False, result.status)
    return (True, result.x.tobytes(), result.duals.tobytes(), float(result.fun).hex())


def recorded_solves(instance: WSCInstance, handle) -> Tuple[object, List[object]]:
    """``exact_wsc``'s answer and every node LP's answer, in order."""
    answers: List[object] = []
    solve = LPRelaxation.solve

    def recording(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        answers.append(lp_answer(result))
        return result

    with mock.patch("repro.setcover.lp._handle", handle), mock.patch.object(
        LPRelaxation, "solve", recording
    ):
        solution = exact_wsc(instance)
    return (solution.set_ids, solution.cost.hex(), solution.lower_bound.hex()), answers


class TestReusedHandle:
    """Each thread reuses one HiGHS handle, cleared before each model."""

    def test_a_b_a_on_one_handle_gives_the_fresh_bytes(self):
        a, b = LPRelaxation(ODD_CYCLE), LPRelaxation(FIVE_FOLD)
        fixed = np.zeros(ODD_CYCLE.num_sets)
        fixed[0] = 1.0
        infeasible = np.zeros(FIVE_FOLD.num_sets)
        runs = [
            (a, 0.0, 1.0), (b, 0.0, 1.0), (a, fixed, 1.0),
            (b, 0.0, infeasible), (a, 0.0, 1.0),
        ]
        with mock.patch("repro.setcover.lp._handle", fresh_handle):
            expected = [lp_answer(lp.solve(lo, hi)) for lp, lo, hi in runs]
        lp_module._HANDLES.__dict__.clear()
        first = lp_module._handle()
        answers = [lp_answer(lp.solve(lo, hi)) for lp, lo, hi in runs]
        assert lp_module._handle() is first
        assert answers == expected
        assert expected[3][0] is False and expected[0] == expected[4]

    @given(degenerate_wsc())
    @settings(max_examples=40, deadline=None)
    @example(ODD_CYCLE)
    @example(FIVE_FOLD)
    def test_exact_node_lps_unchanged(self, instance):
        fresh = recorded_solves(instance, fresh_handle)
        reused = recorded_solves(instance, lp_module._handle)
        assert reused == fresh

    def test_each_thread_has_its_own_handle(self):
        handles = []
        worker = threading.Thread(target=lambda: handles.append(lp_module._handle()))
        worker.start()
        worker.join()
        assert handles[0] is not lp_module._handle()
