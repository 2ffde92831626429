"""Exact WSC via branch-and-bound, and the greedy optimality certificate
built on the same search.

Used as the optimality oracle in tests, to solve the small connected
components that preprocessing step 2 splits off, and — in
first-improvement mode — by :func:`certify_optimal` to prove a greedy
cover optimal before Algorithm 3 pays for its LP arm.  Not intended for
large instances — the problem is NP-hard (Theorem 2.5) and the search is
exponential in the worst case.

Search strategy:

* coverage state is one bitmask over element ids
  (:meth:`~repro.core.wsc.WSCInstance.member_masks`);
* branch on the uncovered element with the fewest candidate sets
  (fail-first, lowest id on ties), trying candidates cheapest-first;
* admissible lower bound on the cost still to pay: the larger of the
  *per-element share* bound ``Σ_{e uncovered} min_{s ∋ e} c_s / |s ∩
  uncovered|`` (every cover pays each uncovered element at least its
  cheapest share) and ``max_e min_{s ∋ e} c_s`` (every cover pays for
  the hardest element's cheapest set);
* a node is pruned when ``spent + bound`` reaches the ceiling: the
  incumbent's cost in optimisation mode, ``G − 1`` in certificate mode.

Because the bound is admissible, pruning only removes subtrees that hold
no cover below the ceiling, so the search meets its incumbents in the
same depth-first order whatever bound it uses.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.kernels.pyjit import greedy_wsc
from repro.core.properties import EXACT_INTEGER_SUM
from repro.core.wsc import WSCInstance, WSCSolution
from repro.exceptions import SolverError

#: Hard cap on branch-and-bound nodes; exceeded means the instance is too
#: large for the exact oracle and callers should use an approximation.
DEFAULT_NODE_LIMIT = 2_000_000

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


def improvement_ceiling(cost: float) -> float:
    """The ceiling a cover must get under to beat one costing ``cost``:
    ``cost`` less 1e-12, or less ``cost · 2**-40`` where that is smaller.
    A cover that ties ``cost`` but for float round-off never counts as
    cheaper, and no slack is larger than a relative ``2**-40``, so tiny
    costs cannot push the optimum above the ceiling."""
    return cost - min(1e-12, cost * 2.0**-40)


class _NodeLimit(Exception):
    """The search visited more nodes than its cap."""


def _search(
    instance: WSCInstance,
    ceiling: float,
    node_limit: int,
    first_improvement: bool,
) -> Optional[Tuple[int, ...]]:
    """Depth-first branch-and-bound for covers costing below ``ceiling``.

    Returns the sets of the last cover found, or ``None`` when no cover
    costs less than the ceiling.  In optimisation mode every cover found
    lowers the ceiling to :func:`improvement_ceiling` of its own cost;
    with ``first_improvement`` the search stops at the first one.
    Raises :class:`_NodeLimit` past ``node_limit`` nodes.
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

    found: Optional[Tuple[int, ...]] = None
    nodes = 0
    chosen: List[int] = []

    def descend(uncovered: int, spent: float) -> bool:
        """Explore one node; True when the search should stop."""
        nonlocal ceiling, found, nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        if spent + bound(uncovered) >= ceiling:
            return False
        if not uncovered:
            # A full cover, strictly below the ceiling by the check above.
            found = tuple(chosen)
            ceiling = improvement_ceiling(spent)
            return first_improvement
        element = next(e for e in branch_order if uncovered >> e & 1)
        for set_id in candidates[element]:
            chosen.append(set_id)
            stop = descend(uncovered & ~masks[set_id], spent + costs[set_id])
            chosen.pop()
            if stop:
                return True
        return False

    descend((1 << instance.universe_size) - 1, 0.0)
    return found


def exact_wsc(instance: WSCInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> WSCSolution:
    """Optimal WSC solution (branch-and-bound seeded with the greedy cover).

    Raises :class:`SolverError` when the node limit is hit, so a silent
    approximation can never masquerade as an exact answer.
    """
    instance.validate_coverable()
    incumbent = greedy_wsc(instance)
    try:
        found = _search(instance, improvement_ceiling(incumbent.cost), node_limit, False)
    except _NodeLimit:
        raise SolverError(
            f"exact WSC exceeded the node limit ({node_limit}); "
            "instance too large for the exact oracle"
        ) from None
    best_sets = incumbent.set_ids if found is None else found
    # Strip any redundancy (branching can pick supersets of earlier picks).
    pruned = instance.prune_redundant(list(best_sets))
    cost = sum(instance.set_cost(set_id) for set_id in pruned)
    solution = WSCSolution(pruned, cost, lower_bound=cost)
    instance.verify_solution(solution)
    return solution


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
        cheaper = _search(instance, solution.cost - 1 + 1e-6, CERTIFY_NODE_LIMIT, True)
    except _NodeLimit:
        return False
    return cheaper is None
