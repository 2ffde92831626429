"""Exact WSC via LP-based branch-and-bound, and the greedy optimality
certificate.

:func:`exact_wsc` is the optimality oracle in tests and solves the
components of :class:`~repro.solvers.exact.ExactSolver`.  It bounds
every node with the LP relaxation (fixing branched variables through
their bounds) and branches on the most fractional variable.  On
instances whose LP is near-integral — common for the WSC images of MC³
loads, as the LP-rounding results in EXPERIMENTS.md show — it proves
optimality in a handful of nodes.  The problem is NP-hard (Theorem 2.5),
so the node count is exponential in the worst case and capped.

Node LPs go through :class:`repro.setcover.lp.LPRelaxation`: the HiGHS
model is built once per instance and each node hands a fresh HiGHS
solver that model under its own column bounds.  No solver state is kept
between nodes, so each node pays a fresh solve with no warm start — the
oracle targets hundreds of sets, not the synthetic 100k loads.

:func:`certify_optimal` proves a greedy cover optimal before Algorithm 3
pays for its LP arm.  It runs a small combinatorial depth-first search,
:func:`_search`, for a cover cheaper than the greedy one:

* coverage state is one bitmask over element ids
  (:meth:`~repro.core.wsc.WSCInstance.member_masks`);
* branch on the uncovered element with the fewest candidate sets
  (fail-first, lowest id on ties), trying candidates cheapest-first;
* admissible lower bound on the cost still to pay: the larger of the
  *per-element share* bound ``Σ_{e uncovered} min_{s ∋ e} c_s / |s ∩
  uncovered|`` (every cover pays each uncovered element at least its
  cheapest share) and ``max_e min_{s ∋ e} c_s`` (every cover pays for
  the hardest element's cheapest set);
* a node is pruned when ``spent + bound`` reaches the ceiling ``G − 1``.

Because the bound is admissible, pruning only removes subtrees that hold
no cover below the ceiling, so the search meets its first cover in the
same depth-first order whatever bound it uses.
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

#: Hard cap on LP branch-and-bound nodes; exceeded means the instance is
#: too large for the exact oracle and callers should use an
#: approximation.
DEFAULT_NODE_LIMIT = 10_000

#: Variables within this distance of an integer are considered integral.
INTEGRALITY_TOL = 1e-6

#: With non-integer costs, a node is explored only while its bound is
#: below the incumbent by more than this share of the incumbent's cost.
#: Relative, so the search is exact to the same precision at every cost
#: scale.
RELATIVE_GAP = 1e-9

#: Node cap of the certificate search.  A node count, not a time budget,
#: so whether a component is certified never depends on host load.
CERTIFY_NODE_LIMIT = 100

#: Components with more elements are not offered to the certificate:
#: each node costs a pass over the uncovered elements' sets, and no
#: measured component above the cap was certified.  Measured with the
#: cap lifted, on a 2-vCPU host: the drift benchmark load (bestbuy_like
#: windows, 285 components) has 10 above 32 elements, none certified,
#: 8 ms of searching against 34 ms of ``f`` arm they still need; the
#: synthetic load's one 1383-element component takes 129 ms to fail
#: against a 16 ms ``f`` arm, and private_like(10000)'s 17815-element
#: one 8.5 s against 0.29 s.  The daemon load has no component above 16.
CERTIFY_MAX_ELEMENTS = 32

#: Relative slack taken off the computed bound, so float round-off in
#: the share sum can never make it exceed the true remaining optimum.
_BOUND_SLACK = 1e-9


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


def exact_wsc(instance: WSCInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> WSCSolution:
    """Optimal WSC solution (LP branch-and-bound seeded with the greedy
    cover), with ``lower_bound`` equal to its cost.

    Exact on integer costs summing below ``2**53``; on other costs within
    a relative :data:`RELATIVE_GAP` of the optimum.  Raises
    :class:`SolverError` past ``node_limit`` nodes, so a silent
    approximation can never masquerade as an exact answer.
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
                f"exact WSC exceeded the node limit ({node_limit}); "
                "instance too large for the exact oracle"
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
            chosen = tuple(set_id for set_id, value in enumerate(x) if value > 0.5)
            cost = float(sum(costs[set_id] for set_id in chosen))
            instance.verify_solution(WSCSolution(chosen, cost))
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

    # Strip any redundancy (an LP vertex can hold zero-cost sets it does
    # not need).
    pruned = instance.prune_redundant(list(best_sets))
    cost = sum(costs[set_id] for set_id in pruned)
    solution = WSCSolution(pruned, cost, lower_bound=cost)
    instance.verify_solution(solution)
    return solution


class _NodeLimit(Exception):
    """The search visited more nodes than its cap."""


def _search(
    instance: WSCInstance, ceiling: float, node_limit: int
) -> Optional[Tuple[int, ...]]:
    """Depth-first search for a cover costing below ``ceiling``.

    Returns the sets of the first cover found, or ``None`` when no cover
    costs less than the ceiling.  Raises :class:`_NodeLimit` past
    ``node_limit`` nodes.
    """
    masks = instance.member_masks()
    costs = instance.set_costs()
    containing = [instance.sets_containing(e) for e in range(instance.universe_size)]
    candidates = [sorted(sets, key=costs.__getitem__) for sets in containing]
    cheapest = [costs[sets[0]] for sets in candidates]
    branch_order = sorted(
        range(instance.universe_size), key=lambda e: (len(containing[e]), e)
    )

    def bound(uncovered: int) -> float:
        share = 0.0
        hardest = 0.0
        ratios = {}
        rest = uncovered
        while rest:
            low = rest & -rest
            element = low.bit_length() - 1
            rest ^= low
            best = math.inf
            for set_id in containing[element]:
                ratio = ratios.get(set_id)
                if ratio is None:
                    ratio = costs[set_id] / (masks[set_id] & uncovered).bit_count()
                    ratios[set_id] = ratio
                if ratio < best:
                    best = ratio
            share += best
            if cheapest[element] > hardest:
                hardest = cheapest[element]
        return max(share * (1.0 - _BOUND_SLACK), hardest)

    nodes = 0
    chosen: List[int] = []

    def descend(uncovered: int, spent: float) -> Optional[Tuple[int, ...]]:
        """Explore one node; the first cover below the ceiling, if any."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        if spent + bound(uncovered) >= ceiling:
            return None
        if not uncovered:
            # A full cover, strictly below the ceiling by the check above.
            return tuple(chosen)
        element = next(e for e in branch_order if uncovered >> e & 1)
        for set_id in candidates[element]:
            chosen.append(set_id)
            found = descend(uncovered & ~masks[set_id], spent + costs[set_id])
            chosen.pop()
            if found is not None:
                return found
        return None

    return descend((1 << instance.universe_size) - 1, 0.0)


def certify_optimal(instance: WSCInstance, solution: WSCSolution) -> bool:
    """Prove that no cover of ``instance`` is cheaper than ``solution``.

    Only integer costs whose total is below ``2**53`` qualify: every
    cover's cost is then an integer summed exactly, in any order, so it
    suffices to show that no cover costs ``G − 1`` or less (``G`` =
    ``solution.cost``), and a caller comparing float sums of two covers
    sees the same order as exact arithmetic.  Anything else — a
    non-integer cost, a component above :data:`CERTIFY_MAX_ELEMENTS`
    elements, a cheaper cover found, or more than
    :data:`CERTIFY_NODE_LIMIT` nodes — returns
    ``False``: no proof, not a disproof.
    """
    costs = instance.set_costs()
    if (
        instance.universe_size > CERTIFY_MAX_ELEMENTS
        or not solution.cost.is_integer()
        or not all(cost.is_integer() for cost in costs)
        or sum(costs) >= EXACT_INTEGER_SUM
    ):
        return False
    try:
        cheaper = _search(instance, solution.cost - 1 + 1e-6, CERTIFY_NODE_LIMIT)
    except _NodeLimit:
        return False
    return cheaper is None
