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
which hands HiGHS the model through :func:`scipy.optimize.milp` with no
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
validation: about half of a small LP's wall-clock.

For instances beyond :data:`DEFAULT_SIZE_LIMIT` nonzeros the caller
should prefer the LP-free primal–dual algorithm in
:mod:`repro.setcover.primal_dual`, which has the same guarantee.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Union

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp

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

    __slots__ = ("costs", "rows")

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
        self.rows = LinearConstraint(matrix, -np.inf, -1.0)

    def solve(
        self,
        lower: Union[float, np.ndarray] = 0.0,
        upper: Union[float, np.ndarray] = 1.0,
    ) -> OptimizeResult:
        """HiGHS's answer (``success``, ``x``, ``fun``, ``message``)."""
        return milp(
            self.costs,
            bounds=Bounds(lower, upper),
            constraints=self.rows,
        )


def lp_relaxation(instance: WSCInstance) -> np.ndarray:
    """Solve the WSC linear relaxation; returns the fractional ``x``."""
    instance.validate_coverable()
    result = LPRelaxation(instance).solve()
    if not result.success:
        raise SolverError(f"LP relaxation failed: {result.message}")
    return result.x


def lp_rounding_wsc(instance: WSCInstance, prune: bool = False) -> WSCSolution:
    """The ``f``-approximation: round the LP relaxation at threshold 1/f.

    ``prune=True`` additionally drops redundant sets (an extension beyond
    the paper's algorithm — it can only improve the cost and preserves
    the guarantee; the redundancy-pruning ablation measures its effect).
    """
    frequency = instance.frequency()
    if frequency == 0:
        raise SolverError("instance has an empty universe")
    x = lp_relaxation(instance)
    threshold = 1.0 / frequency
    # Guard against solver round-off just below the threshold.
    epsilon = 1e-9
    selected = [set_id for set_id, value in enumerate(x) if value >= threshold - epsilon]
    if prune:
        selected = instance.prune_redundant(selected)
    cost = sum(instance.set_cost(set_id) for set_id in selected)
    solution = WSCSolution(selected, cost, lower_bound=_lp_value(instance, x))
    instance.verify_solution(solution)
    return solution


def _lp_value(instance: WSCInstance, x: np.ndarray) -> float:
    """``c·x``: the relaxation's optimum, up to HiGHS round-off."""
    return float(np.dot(np.array(instance.set_costs()), x))


def lp_lower_bound(instance: WSCInstance) -> float:
    """Optimal value of the relaxation — a valid lower bound on OPT, up
    to the solver's round-off (see :func:`~repro.setcover.wsc_lower_bound`).
    """
    return _lp_value(instance, lp_relaxation(instance))
