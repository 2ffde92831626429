"""Exact WSC via LP-based branch-and-bound.

The combinatorial oracle in :mod:`repro.setcover.exact` explores the
choice tree with a weak bound; this engine instead bounds every node
with the LP relaxation (fixing branched variables through their bounds)
and branches on the most fractional variable.  On instances whose LP is
near-integral — common for the WSC images of MC³ loads, as the
LP-rounding results in EXPERIMENTS.md show — it proves optimality in a
handful of nodes where the combinatorial search would enumerate
thousands.

Node LPs go through :class:`repro.setcover.lp.LPRelaxation`: the
HiGHS model is built once per instance and each node hands a fresh
HiGHS solver that model under its own column bounds.  No solver state
is kept between nodes, so each node pays a fresh solve with no warm
start — the engine targets hundreds of sets, not the synthetic 100k
loads.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernels.pyjit import greedy_wsc
from repro.core.properties import EXACT_INTEGER_SUM
from repro.core.wsc import WSCInstance, WSCSolution
from repro.exceptions import SolverError
from repro.setcover.lp import INFEASIBLE, LPRelaxation, dual_bound

#: Variables within this distance of an integer are considered integral.
INTEGRALITY_TOL = 1e-6

DEFAULT_NODE_LIMIT = 10_000


#: With non-integer costs, a node is explored only while its bound is
#: below the incumbent by more than this share of the incumbent's cost.
#: Relative, so the search is exact to the same precision at every cost
#: scale.
RELATIVE_GAP = 1e-9


class _NodeLP:
    """Shared LP data; per-node solves differ only in variable bounds.

    HiGHS's tolerances are absolute (1e-7), and on costs far below them
    it reports as optimal a vertex that is not.  So when every cost is
    below 1, the node LPs run on the costs scaled by the power of two
    that brings the largest into ``[1, 2)``, an exact change of units,
    and each bound is scaled back.
    """

    def __init__(self, instance: WSCInstance):
        top = max(instance.set_costs(), default=0.0)
        self.exponent = 1 - math.frexp(top)[1] if 0 < top < 1 else 0
        if self.exponent:
            scaled = WSCInstance()
            for element_id in range(instance.universe_size):
                scaled.add_element(element_id)
            for set_id in range(instance.num_sets):
                scaled.add_set_ids(
                    set_id,
                    instance.set_members(set_id),
                    math.ldexp(instance.set_cost(set_id), self.exponent),
                )
            instance = scaled
        self.instance = instance
        self.lp = LPRelaxation(instance)
        self.num_sets = instance.num_sets

    def solve(self, fixed: Dict[int, int]) -> Optional[Tuple[float, np.ndarray]]:
        """A lower bound on every cover under the given 0/1 fixings
        (:func:`~repro.setcover.lp.dual_bound`, not HiGHS's ``c·x``,
        which can overshoot on tiny costs) and the LP solution; ``None``
        if infeasible.

        Any other status without an optimum (an iteration limit,
        numerical trouble) raises :class:`SolverError`: pruning such a
        node as infeasible could drop the optimum unnoticed."""
        lower = np.zeros(self.num_sets)
        upper = np.ones(self.num_sets)
        for set_id, value in fixed.items():
            lower[set_id] = upper[set_id] = float(value)
        result = self.lp.solve(lower, upper)
        if not result.success:
            if result.status in INFEASIBLE:
                return None
            raise SolverError(f"node LP ended without an optimum: {result.message}")
        bound = math.ldexp(dual_bound(self.instance, result.duals, fixed), -self.exponent)
        # Scaling back is exact unless it lands below the normal floats.
        return (bound if bound >= sys.float_info.min else 0.0), result.x


def exact_wsc_lp(
    instance: WSCInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> WSCSolution:
    """Optimal WSC via LP branch-and-bound.

    Raises :class:`SolverError` on node-limit exhaustion (no silent
    approximation).
    """
    instance.validate_coverable()
    lp = _NodeLP(instance)

    incumbent = greedy_wsc(instance)
    best_cost = incumbent.cost
    best_sets: Tuple[int, ...] = incumbent.set_ids
    # Integer costs summing below 2**53 make every cover's float cost
    # exact, so a cheaper cover costs at least 1 less.
    costs = instance.set_costs()
    integral = all(cost.is_integer() for cost in costs) and sum(costs) < EXACT_INTEGER_SUM

    def hopeless(bound: float) -> bool:
        """No cover under a node with this bound beats the incumbent."""
        if integral:
            return bound > best_cost - 1
        return bound >= best_cost * (1.0 - RELATIVE_GAP)

    # Depth-first stack of variable fixings; DFS keeps memory flat and
    # finds improving incumbents early.
    stack: List[Dict[int, int]] = [{}]
    nodes = 0
    while stack:
        fixed = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise SolverError(
                f"LP branch-and-bound exceeded the node limit ({node_limit})"
            )
        solved = lp.solve(fixed)
        if solved is None:
            continue
        bound, x = solved
        if hopeless(bound):
            continue
        # Most fractional variable.
        fractional = None
        worst = INTEGRALITY_TOL
        for set_id, value in enumerate(x):
            if set_id in fixed:
                continue
            distance = abs(value - round(value))
            if distance > worst:
                worst = distance
                fractional = set_id
        if fractional is None:
            # Integral LP solution: a feasible cover beating the incumbent.
            chosen = tuple(
                set_id for set_id, value in enumerate(x) if value > 0.5
            )
            cost = float(sum(instance.set_cost(s) for s in chosen))
            solution = WSCSolution(chosen, cost)
            instance.verify_solution(solution)
            if cost < best_cost:
                best_cost = cost
                best_sets = chosen
            continue
        # Branch: try the rounding-up child first (tends to find covers).
        down = dict(fixed)
        down[fractional] = 0
        up = dict(fixed)
        up[fractional] = 1
        stack.append(down)
        stack.append(up)

    solution = WSCSolution(best_sets, best_cost)
    instance.verify_solution(solution)
    return solution
