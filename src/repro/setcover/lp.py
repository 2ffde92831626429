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
:mod:`repro.setcover.exact_lp` — goes through :class:`LPRelaxation`,
which hands HiGHS the model as :func:`scipy.optimize.milp` does with no
integer variables.  The model is the one ``linprog(method="highs")``
passed: costs ``c``, column bounds ``[0, 1]``, rows ``−inf ≤ −A·x ≤ −1``,
with ``A`` built straight into CSC form from
:meth:`WSCInstance.set_members` (sorted and de-duplicated, so the arrays
equal those ``linprog``'s COO → CSR → CSC conversions produced).  The
options are the same too: HiGHS's default presolve (``choose``) runs
presolve as ``linprog``'s ``presolve=True`` did, and its default
simplex strategy is the dual simplex ``linprog`` set explicitly.  So
``x`` comes back bit for bit as ``linprog`` returned it, and the call
skips ``linprog``'s input cleaning, format conversions and per-option
validation: about half of a small LP's wall-clock.  The call skips
``milp`` too, passing its arrays straight to the HiGHS wrapper that
``milp`` calls, since ``milp`` drops the row duals the wrapper returns.
That wrapper is private to SciPy; the package requires the SciPy
releases that lay it out this way (see ``pyproject.toml``).

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

import math
from itertools import accumulate, chain
from typing import Union

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, OptimizeResult
from scipy.optimize._highspy._highs_wrapper import _highs_wrapper
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from repro.exceptions import SolverError
from repro.setcover.instance import WSCInstance, WSCSolution

#: Above this many constraint-matrix nonzeros the general solver switches
#: to the primal–dual algorithm; HiGHS handles more, but wall-clock grows
#: steeply and the guarantee is identical.
DEFAULT_SIZE_LIMIT = 2_000_000


def lp_nonzeros(instance: WSCInstance) -> int:
    """Number of nonzeros the LP constraint matrix would have."""
    return sum(len(instance.set_members(set_id)) for set_id in range(instance.num_sets))


class LPRelaxation:
    """The WSC relaxation ``min c·x, A·x ≥ 1, lower ≤ x ≤ upper`` in the
    form HiGHS receives it; built once, solved under any column bounds."""

    __slots__ = ("costs", "rows", "_integrality")

    def __init__(self, instance: WSCInstance):
        members = [instance.set_members(set_id) for set_id in range(instance.num_sets)]
        starts = list(accumulate(map(len, members), initial=0))
        nonzeros = starts[-1]
        indptr = np.array(starts, dtype=np.int32)
        indices = np.fromiter(chain.from_iterable(members), np.int32, nonzeros)
        # The rows ``linprog`` made of ``A_ub x <= b_ub``, −inf ≤ −A·x ≤ −1,
        # kept as they were so that HiGHS is handed the identical model.
        matrix = sparse.csc_array(
            (np.full(nonzeros, -1.0), indices, indptr),
            shape=(instance.universe_size, instance.num_sets),
        )
        self.costs = np.array(instance.set_costs(), dtype=np.float64)
        self.rows = LinearConstraint(
            matrix,
            np.full(instance.universe_size, -np.inf),
            np.full(instance.universe_size, -1.0),
        )
        self._integrality = np.zeros(instance.num_sets, dtype=np.uint8)

    def solve(
        self,
        lower: Union[float, np.ndarray] = 0.0,
        upper: Union[float, np.ndarray] = 1.0,
    ) -> OptimizeResult:
        """HiGHS's answer: ``success``, ``x``, ``fun``, ``message`` and
        ``duals``, the row duals ``y_e`` (non-negative up to round-off;
        ``x`` and ``duals`` are ``None`` unless HiGHS found an optimum)."""
        lower = np.broadcast_to(lower, self.costs.shape).astype(np.float64)
        upper = np.broadcast_to(upper, self.costs.shape).astype(np.float64)
        matrix = self.rows.A
        answer = _highs_wrapper(
            self.costs, matrix.indptr, matrix.indices, matrix.data,
            self.rows.lb, self.rows.ub, lower, upper, self._integrality,
            {"log_to_console": False, "mip_max_nodes": None},
        )
        status, message = _highs_to_scipy_status_message(
            answer.get("status"), answer.get("message")
        )
        if status != 0:
            return OptimizeResult(success=False, message=message, x=None, fun=None, duals=None)
        return OptimizeResult(
            success=True,
            message=message,
            x=np.array(answer["x"]),
            fun=answer["fun"],
            duals=-np.array(answer["lambda"]),
        )


def solve_relaxation(instance: WSCInstance) -> OptimizeResult:
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


def dual_bound(instance: WSCInstance, duals: np.ndarray) -> float:
    """A lower bound on OPT from any row duals, by weak duality.

    The dual of ``min c·x, A·x ≥ 1, 0 ≤ x ≤ 1`` is ``max Σ y_e − Σ z_s``
    subject to ``Σ_{e ∈ s} y_e − z_s ≤ c_s`` and ``y, z ≥ 0``.  Any
    ``y ≥ 0`` is feasible with any ``z_s ≥ max(0, Σ_{e ∈ s} y_e − c_s)``,
    and then ``Σ y_e − Σ z_s ≤ LP* ≤ OPT``.  Here ``y`` is the duals
    clipped at 0 and scaled by :data:`DUAL_SCALE`, so on HiGHS's optimal
    duals the bound is ``LP*`` up to HiGHS's tolerances and a relative
    ``2**-30``.

    Each ``z_s`` is an upper bound computed in floats: a sum of ``n``
    non-negative doubles is within a factor ``1 + n·2**-52`` of the
    exact sum, so the float sum scaled by ``1 + n·2**-50`` exceeds the
    exact one by more than the subtraction of ``c_s`` can round off.
    The final ``Σ y_e − Σ z_s`` is summed exactly (:func:`math.fsum`)
    and rounded down, so the returned float never exceeds a true bound.
    """
    y = np.where(duals > 0, duals, 0.0) * DUAL_SCALE
    members = [instance.set_members(set_id) for set_id in range(instance.num_sets)]
    sizes = np.fromiter(map(len, members), np.int64, len(members))
    elements = np.fromiter(chain.from_iterable(members), np.intp, int(sizes.sum()))
    # bincount adds each set's terms one by one, in member order.
    sums = np.bincount(
        np.repeat(np.arange(len(members)), sizes), weights=y[elements], minlength=len(members)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        # A float difference is <= 0 exactly when the exact one is.
        excess = sums * (1.0 + sizes * 2.0**-50) - np.array(instance.set_costs())
    z = excess[excess > 0]
    if not np.isfinite(z).all():
        return 0.0  # some set's dual sum left the float range
    terms = y[y > 0].tolist() + (-z).tolist()
    try:
        value = math.fsum(terms)
        if value > 0 and math.fsum(terms + [-value]) < 0:
            value = math.nextafter(value, 0.0)
    except OverflowError:
        return 0.0
    return max(value, 0.0)
