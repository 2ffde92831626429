"""LP-relaxation rounding for WSC: the classic ``f``-approximation.

Solve the linear relaxation

    min  Σ c_s · x_s
    s.t. Σ_{s ∋ e} x_s ≥ 1   for every element e
         0 ≤ x_s ≤ 1

and select every set with ``x_s ≥ 1/f`` where ``f`` is the instance
frequency.  Feasibility: each element's constraint sums at most ``f``
variables, so at least one of them is ``≥ 1/f``.  Cost: selected
variables are inflated by at most ``f``, giving ``f · OPT_LP ≤ f · OPT``
(Theorem 2.6, [Vazirani]).

Every relaxation in the package — this module's and the node LPs of
:func:`repro.setcover.exact_wsc` — goes through :class:`LPRelaxation`,
which calls HiGHS through SciPy's bindings (``scipy.optimize._highspy.
_core``) directly.  Only that extension is loaded (:func:`_load_highs`):
importing it the usual way first runs ``scipy/optimize/__init__.py``,
which pulls in about 550 modules the package never calls (``linprog``,
``scipy.linalg``, …), about 40 MB of resident memory and 0.4 s of
start-up in every planner process.  :class:`LPRelaxation` hands a
``_Highs`` object (one per thread, cleared before each solve) the model
that ``linprog(method="highs")`` passed: costs ``c``, column bounds
``[0, 1]``, rows ``−inf ≤ −A·x ≤ −1``, with ``A`` in CSC form straight
from :meth:`WSCInstance.member_arrays` (sorted and de-duplicated, so the
arrays equal those ``linprog``'s COO → CSR → CSC conversions produced),
and an all-continuous integrality list, as SciPy's own HiGHS wrapper
fills it in.  The one option set is ``log_to_console=False``, as that
wrapper sets it: HiGHS's default presolve (``choose``) runs presolve as
``linprog``'s ``presolve=True`` did, and its default simplex strategy
is the dual simplex ``linprog`` set explicitly.  So ``x`` comes back bit
for bit as ``linprog`` returned it.  Only ``x``, the row duals and the
objective are read back; the call skips ``linprog``'s input cleaning
and format conversions and the wrapper's per-option validation, basis
read and marginal loop.  The bindings are private to SciPy; the package
requires the SciPy releases that lay them out this way (see
``pyproject.toml``).

The lower bound is not ``c·x``.  HiGHS stops once the reduced costs are
within an absolute tolerance (1e-7) of optimal, so ``c·x`` can exceed
the relaxation's optimum: on costs far below the tolerance it may even
exceed OPT twice over.  :func:`dual_bound` instead turns HiGHS's row
duals into a feasible dual solution whose value it sums exactly and
rounds down, so weak duality makes it a lower bound on OPT.

For instances beyond :data:`DEFAULT_SIZE_LIMIT` nonzeros the caller
should prefer the LP-free primal–dual algorithm in
:mod:`repro.setcover.primal_dual`, which has the same guarantee.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from types import ModuleType
from typing import Mapping, Optional, Union

import numpy as np
import scipy

from repro.core.wsc import WSCInstance, WSCSolution
from repro.exceptions import SolverError

#: The bindings' canonical module name, under which SciPy imports them.
HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs() -> ModuleType:
    """SciPy's HiGHS extension, without running ``scipy.optimize``'s
    ``__init__``.

    The module is registered in :data:`sys.modules` under its canonical
    name, so a later ``import scipy.optimize`` reuses this object rather
    than load the extension twice; if SciPy's own import came first, its
    module is reused here.
    """
    loaded = sys.modules.get(HIGHS_MODULE)
    if loaded is not None:
        return loaded
    directory = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(HIGHS_MODULE, [directory])
    if spec is None:
        raise ImportError(
            f"SciPy {scipy.__version__} has no HiGHS extension {HIGHS_MODULE} "
            f"in {directory}; the package needs a SciPy release (1.15 or later) "
            "that lays its HiGHS bindings out there"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs()


@dataclass(frozen=True)
class LPResult:
    """One relaxation solve: ``success``, ``status`` (the HiGHS model
    status), ``message``, and ``x``, ``fun`` and the row ``duals``,
    which are ``None`` unless HiGHS found an optimum."""

    success: bool
    status: highs.HighsModelStatus
    message: str
    x: Optional[np.ndarray]
    fun: Optional[float]
    duals: Optional[np.ndarray]


#: Above this many constraint-matrix nonzeros the general solver switches
#: to the primal–dual algorithm; HiGHS handles more, but wall-clock grows
#: steeply and the guarantee is identical.
DEFAULT_SIZE_LIMIT = 2_000_000

#: The options every solve passes: HiGHS's defaults, silenced.
_OPTIONS = highs.HighsOptions()
_OPTIONS.log_to_console = False

#: One HiGHS handle per thread, cleared before each model: building a
#: handle costs more than the small LPs most components solve.
_HANDLES = threading.local()


def _handle() -> "highs._Highs":
    """This thread's HiGHS handle, with no model and no solver state."""
    solver = getattr(_HANDLES, "solver", None)
    if solver is None:
        solver = _HANDLES.solver = highs._Highs()
        solver.passOptions(_OPTIONS)
    else:
        solver.clearModel()
        solver.clearSolver()
    return solver


#: Model statuses that prove a relaxation has no feasible point.  Its
#: columns are boxed in ``[0, 1]``, so "unbounded or infeasible" can
#: only mean infeasible.
INFEASIBLE = (
    highs.HighsModelStatus.kInfeasible,
    highs.HighsModelStatus.kUnboundedOrInfeasible,
)


def lp_nonzeros(instance: WSCInstance) -> int:
    """Number of nonzeros the LP constraint matrix would have."""
    return sum(len(instance.set_members(set_id)) for set_id in range(instance.num_sets))


class LPRelaxation:
    """The WSC relaxation ``min c·x, A·x ≥ 1, lower ≤ x ≤ upper`` as a
    HiGHS model; built once, solved under any column bounds."""

    __slots__ = ("_model",)

    def __init__(self, instance: WSCInstance):
        indptr, indices = instance.member_arrays()
        num_rows, num_cols = instance.universe_size, instance.num_sets
        model = highs.HighsLp()
        model.num_col_ = num_cols
        model.num_row_ = num_rows
        model.col_cost_ = np.array(instance.set_costs(), dtype=np.float64)
        # The rows ``linprog`` made of ``A_ub x <= b_ub``, −inf ≤ −A·x ≤ −1,
        # kept as they were so that HiGHS is handed the identical model.
        model.row_lower_ = np.full(num_rows, -np.inf)
        model.row_upper_ = np.full(num_rows, -1.0)
        matrix = model.a_matrix_
        matrix.num_col_ = num_cols
        matrix.num_row_ = num_rows
        matrix.format_ = highs.MatrixFormat.kColwise
        matrix.start_ = indptr
        matrix.index_ = indices
        matrix.value_ = np.full(len(indices), -1.0)
        model.integrality_ = [highs.HighsVarType.kContinuous] * num_cols
        self._model = model

    def solve(
        self,
        lower: Union[float, np.ndarray] = 0.0,
        upper: Union[float, np.ndarray] = 1.0,
    ) -> LPResult:
        """HiGHS's answer under these column bounds; ``duals`` are the
        row duals ``y_e``, non-negative up to round-off."""
        model = self._model
        shape = (model.num_col_,)
        model.col_lower_ = np.broadcast_to(lower, shape).astype(np.float64)
        model.col_upper_ = np.broadcast_to(upper, shape).astype(np.float64)
        solver = _handle()
        ran = (
            solver.passModel(model) != highs.HighsStatus.kError
            and solver.run() != highs.HighsStatus.kError
        )
        status = solver.getModelStatus()
        message = solver.modelStatusToString(status)
        if not ran or status != highs.HighsModelStatus.kOptimal:
            return LPResult(
                success=False, status=status, message=message, x=None, fun=None, duals=None
            )
        solution = solver.getSolution()
        return LPResult(
            success=True,
            status=status,
            message=message,
            x=np.array(solution.col_value),
            fun=solver.getInfo().objective_function_value,
            duals=-np.array(solution.row_dual),
        )


def solve_relaxation(instance: WSCInstance) -> LPResult:
    """Solve the WSC linear relaxation: the fractional ``x`` and the row
    ``duals``."""
    instance.validate_coverable()
    result = LPRelaxation(instance).solve()
    if not result.success:
        raise SolverError(f"LP relaxation failed: {result.message}")
    return result


def lp_relaxation(instance: WSCInstance) -> np.ndarray:
    """Solve the WSC linear relaxation; returns the fractional ``x``."""
    return solve_relaxation(instance).x


def lp_rounding_wsc(instance: WSCInstance, prune: bool = False) -> WSCSolution:
    """The ``f``-approximation: round the LP relaxation at threshold 1/f.

    ``prune=True`` additionally drops redundant sets (an extension beyond
    the paper's algorithm — it can only improve the cost and preserves
    the guarantee; the redundancy-pruning ablation measures its effect).
    """
    frequency = instance.frequency()
    if frequency == 0:
        raise SolverError("instance has an empty universe")
    relaxation = solve_relaxation(instance)
    x = relaxation.x
    threshold = 1.0 / frequency
    # Guard against solver round-off just below the threshold.
    epsilon = 1e-9
    selected = [set_id for set_id, value in enumerate(x) if value >= threshold - epsilon]
    if prune:
        selected = instance.prune_redundant(selected)
    cost = sum(instance.set_cost(set_id) for set_id in selected)
    solution = WSCSolution(selected, cost, lower_bound=dual_bound(instance, relaxation.duals))
    instance.verify_solution(solution)
    return solution


def lp_lower_bound(instance: WSCInstance) -> float:
    """The relaxation's optimum as :func:`dual_bound` certifies it: a
    lower bound on OPT (see :func:`~repro.setcover.wsc_lower_bound`)."""
    return dual_bound(instance, solve_relaxation(instance).duals)


#: :func:`dual_bound` scales the duals by this factor first, so that a
#: set whose constraint HiGHS left tight, or within its tolerance of
#: tight, clears its cost by more than the float sums' round-off.
DUAL_SCALE = 1.0 - 2.0**-30


def dual_bound(
    instance: WSCInstance,
    duals: np.ndarray,
    fixed: Optional[Mapping[int, int]] = None,
) -> float:
    """A lower bound, by weak duality, on every cover that agrees with
    the column fixings ``fixed`` (set id → 0 or 1), from any row duals.

    For any ``y ≥ 0`` and any ``x`` with ``A·x ≥ 1``,
    ``c·x ≥ Σ y_e + Σ_s r_s·x_s`` with ``r_s = c_s − Σ_{e ∈ s} y_e``, so
    ``Σ y_e + Σ_s min(l_s·r_s, u_s·r_s)`` bounds every cover in the box
    ``l ≤ x ≤ u``.  A free set (``[0, 1]``) adds
    ``−z_s = min(0, r_s)``, a set fixed to 1 adds ``r_s``, and a set
    fixed to 0 adds nothing.  With no fixings the bound is
    ``Σ y_e − Σ z_s ≤ LP* ≤ OPT``.  Here ``y`` is the duals
    clipped at 0 and scaled by :data:`DUAL_SCALE`, so on HiGHS's optimal
    duals the bound is the box's LP optimum up to HiGHS's tolerances and
    a relative ``2**-30``.

    Each set's dual sum is taken as an upper bound computed in floats: a
    sum of ``n`` non-negative doubles is within a factor ``1 + n·2**-52``
    of the exact sum, so the float sum scaled by ``1 + n·2**-50``
    exceeds the exact one by more than the subtraction of ``c_s`` can
    round off.  A set fixed to 1 adds ``c_s`` and that negated upper
    bound as two terms.  All terms are summed exactly
    (:func:`math.fsum`) and rounded down, so the returned float never
    exceeds a true bound.

    The set sums read the member arrays :class:`LPRelaxation` was built
    from (:meth:`WSCInstance.member_arrays`, cached on the instance), so
    a bound after a solve rebuilds nothing.
    """
    y = np.where(duals > 0, duals, 0.0) * DUAL_SCALE
    indptr, indices = instance.member_arrays()
    sizes = np.diff(indptr)
    # bincount adds each set's terms one by one, in member order.
    sums = np.bincount(
        np.repeat(np.arange(len(sizes)), sizes), weights=y[indices], minlength=len(sizes)
    )
    costs = np.array(instance.set_costs())
    with np.errstate(over="ignore", invalid="ignore"):
        sums_high = sums * (1.0 + sizes * 2.0**-50)
        # A float difference is <= 0 exactly when the exact one is.
        excess = sums_high - costs
    free = excess > 0
    if fixed:
        free[list(fixed)] = False
    z = excess[free]
    if not np.isfinite(z).all():
        return 0.0  # some set's dual sum left the float range
    terms = y[y > 0].tolist() + (-z).tolist()
    if fixed:
        ones = [set_id for set_id, value in fixed.items() if value]
        spent = sums_high[ones]
        if not np.isfinite(spent).all():
            return 0.0
        terms += costs[ones].tolist() + (-spent).tolist()
    try:
        value = math.fsum(terms)
        if value > 0 and math.fsum(terms + [-value]) < 0:
            value = math.nextafter(value, 0.0)
    except OverflowError:
        return 0.0
    return max(value, 0.0)
