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

The relaxation is solved with SciPy's HiGHS backend on a sparse
constraint matrix.  For instances beyond :data:`DEFAULT_SIZE_LIMIT`
nonzeros the caller should prefer the LP-free primal–dual algorithm in
:mod:`repro.setcover.primal_dual`, which has the same guarantee.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import SolverError
from repro.setcover.instance import WSCInstance, WSCSolution

#: Above this many constraint-matrix nonzeros the general solver switches
#: to the primal–dual algorithm; HiGHS handles more, but wall-clock grows
#: steeply and the guarantee is identical.
DEFAULT_SIZE_LIMIT = 2_000_000


def lp_nonzeros(instance: WSCInstance) -> int:
    """Number of nonzeros the LP constraint matrix would have."""
    return sum(len(instance.set_members(set_id)) for set_id in range(instance.num_sets))


def lp_relaxation(instance: WSCInstance) -> np.ndarray:
    """Solve the WSC linear relaxation; returns the fractional ``x``."""
    instance.validate_coverable()
    num_sets = instance.num_sets
    universe = instance.universe_size

    rows, cols = [], []
    for set_id in range(num_sets):
        for element_id in instance.set_members(set_id):
            rows.append(element_id)
            cols.append(set_id)
    data = np.ones(len(rows))
    # linprog wants A_ub x <= b_ub; our constraints are A x >= 1.
    matrix = sparse.csr_matrix(
        (-data, (np.array(rows), np.array(cols))), shape=(universe, num_sets)
    )
    costs = np.array([instance.set_cost(set_id) for set_id in range(num_sets)])
    upper = -np.ones(universe)

    result = linprog(
        c=costs,
        A_ub=matrix,
        b_ub=upper,
        bounds=(0.0, 1.0),
        method="highs",
    )
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
    to the solver's round-off.

    Used by :mod:`repro.analysis` and by EXPERIMENTS.md to report
    optimality gaps on instances too large to solve exactly.
    """
    return _lp_value(instance, lp_relaxation(instance))
