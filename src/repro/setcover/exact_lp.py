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
constraint matrix is built once per instance and each node hands HiGHS
(via ``scipy.optimize.milp``) the same model under its own column
bounds.  SciPy's interface keeps no HiGHS model between calls, so each
node pays a fresh solve with no warm start — the engine targets
hundreds of sets, not the synthetic 100k loads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SolverError
from repro.setcover.greedy import greedy_wsc
from repro.setcover.instance import WSCInstance, WSCSolution
from repro.setcover.lp import LPRelaxation

#: Variables within this distance of an integer are considered integral.
INTEGRALITY_TOL = 1e-6

DEFAULT_NODE_LIMIT = 10_000


class _NodeLP:
    """Shared LP data; per-node solves differ only in variable bounds."""

    def __init__(self, instance: WSCInstance):
        self.lp = LPRelaxation(instance)
        self.num_sets = instance.num_sets

    def solve(self, fixed: Dict[int, int]) -> Optional[Tuple[float, np.ndarray]]:
        """LP value and solution under the given 0/1 fixings; ``None`` if
        infeasible."""
        lower = np.zeros(self.num_sets)
        upper = np.ones(self.num_sets)
        for set_id, value in fixed.items():
            lower[set_id] = upper[set_id] = float(value)
        result = self.lp.solve(lower, upper)
        if not result.success:
            return None
        return float(result.fun), result.x


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
        if bound >= best_cost - 1e-9:
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
