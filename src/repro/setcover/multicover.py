"""Weighted Set *Multi*-Cover: every element must be covered a demanded
number of times.

The paper's related-work section points at Set MultiCover as the
natural generalisation for extending the MC³ model; the robust solver
(`repro.solvers.robust`) uses it to buy *redundant* coverage — if any
one trained classifier later proves unusable, every query stays
answerable.

Algorithms:

* :func:`greedy_multicover` — Chvátal-style greedy on residual demand
  (each set may be bought once; its contribution to an element is at
  most 1 unit of demand).  The classic ``H(Δ)`` guarantee carries over
  to multi-cover [Rajagopalan & Vazirani, FOCS'93].
* :func:`exact_multicover` — branch-and-bound oracle for tests.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

from repro.core.wsc import WSCInstance, WSCSolution
from repro.exceptions import InvalidInstanceError, SolverError, UncoverableQueryError


def improvement_ceiling(cost: float) -> float:
    """The ceiling a cover must get under to beat one costing ``cost``:
    ``cost`` less 1e-12, or less ``cost · 2**-40`` where that is smaller.
    A cover that ties ``cost`` but for float round-off never counts as
    cheaper, and no slack is larger than a relative ``2**-40``, so tiny
    costs cannot push the optimum above the ceiling."""
    return cost - min(1e-12, cost * 2.0**-40)


def validate_demands(instance: WSCInstance, demands: Sequence[int]) -> List[int]:
    """Demands must be non-negative ints, one per element, and each
    element must belong to at least ``demand`` sets (a set counts once)."""
    if len(demands) != instance.universe_size:
        raise InvalidInstanceError(
            f"expected {instance.universe_size} demands, got {len(demands)}"
        )
    cleaned: List[int] = []
    for element_id, demand in enumerate(demands):
        value = int(demand)
        if value < 0:
            raise InvalidInstanceError(f"demand of element {element_id} is negative")
        available = len(instance.sets_containing(element_id))
        if value > available:
            raise UncoverableQueryError(
                frozenset([instance.element_label(element_id)]),
                f"element {instance.element_label(element_id)!r} demands "
                f"{value} covers but belongs to only {available} sets",
            )
        cleaned.append(value)
    return cleaned


def verify_multicover(
    instance: WSCInstance, demands: Sequence[int], solution: WSCSolution
) -> None:
    """Independent feasibility + cost check."""
    counts = [0] * instance.universe_size
    total = 0.0
    seen = set()
    for set_id in solution.set_ids:
        if set_id in seen:
            raise InvalidInstanceError(f"set {set_id} selected twice")
        seen.add(set_id)
        total += instance.set_cost(set_id)
        for element_id in instance.set_members(set_id):
            counts[element_id] += 1
    for element_id, demand in enumerate(demands):
        if counts[element_id] < demand:
            raise InvalidInstanceError(
                f"element {instance.element_label(element_id)!r} covered "
                f"{counts[element_id]} < {demand} times"
            )
    if not math.isclose(total, solution.cost, rel_tol=1e-9, abs_tol=1e-9):
        raise InvalidInstanceError(
            f"multicover cost mismatch: recorded {solution.cost}, actual {total}"
        )


def greedy_multicover(instance: WSCInstance, demands: Sequence[int]) -> WSCSolution:
    """Greedy on residual demand with a lazy-deletion heap.

    A set's usefulness is the number of elements whose residual demand
    is still positive; residual demands only decrease, so the lazy-heap
    argument from plain greedy applies unchanged.
    """
    demands = validate_demands(instance, demands)
    residual = list(demands)
    outstanding = sum(residual)
    selected: List[int] = []
    taken = [False] * instance.num_sets
    total_cost = 0.0

    heap: List[Tuple[float, int, int]] = []
    for set_id in range(instance.num_sets):
        useful = sum(1 for e in instance.set_members(set_id) if residual[e] > 0)
        if useful:
            heapq.heappush(heap, (instance.set_cost(set_id) / useful, set_id, useful))

    while outstanding > 0:
        if not heap:
            raise SolverError("multicover greedy ran out of sets")
        _ratio, set_id, recorded = heapq.heappop(heap)
        if taken[set_id]:
            continue
        useful = sum(1 for e in instance.set_members(set_id) if residual[e] > 0)
        if useful == 0:
            continue
        if useful != recorded:
            heapq.heappush(
                heap, (instance.set_cost(set_id) / useful, set_id, useful)
            )
            continue
        taken[set_id] = True
        selected.append(set_id)
        total_cost += instance.set_cost(set_id)
        for element_id in instance.set_members(set_id):
            if residual[element_id] > 0:
                residual[element_id] -= 1
                outstanding -= 1

    solution = WSCSolution(selected, total_cost)
    verify_multicover(instance, demands, solution)
    return solution


def exact_multicover(
    instance: WSCInstance,
    demands: Sequence[int],
    node_limit: int = 1_000_000,
) -> WSCSolution:
    """Optimal multi-cover by branch-and-bound (small instances only)."""
    demands = validate_demands(instance, demands)
    incumbent = greedy_multicover(instance, demands)
    best_cost = incumbent.cost
    best_sets: Tuple[int, ...] = incumbent.set_ids

    num_sets = instance.num_sets
    members = [instance.set_members(set_id) for set_id in range(num_sets)]
    costs = [instance.set_cost(set_id) for set_id in range(num_sets)]
    containing = [instance.sets_containing(e) for e in range(instance.universe_size)]

    residual = list(demands)
    chosen: List[int] = []
    nodes = [0]

    def lower_bound() -> float:
        """Admissible: the most demanding element must buy its residual
        demand from its cheapest unused sets."""
        bound = 0.0
        for element_id, need in enumerate(residual):
            if need <= 0:
                continue
            available = sorted(
                costs[set_id]
                for set_id in containing[element_id]
                if set_id not in chosen_set
            )
            if len(available) < need:
                return math.inf
            bound = max(bound, sum(available[:need]))
        return bound

    chosen_set: set = set()

    def pick_element() -> Optional[int]:
        best_element = None
        fewest = math.inf
        for element_id, need in enumerate(residual):
            if need <= 0:
                continue
            options = sum(
                1 for set_id in containing[element_id] if set_id not in chosen_set
            )
            slack = options - need
            if slack < fewest:
                fewest = slack
                best_element = element_id
        return best_element

    def descend(cost: float) -> None:
        nonlocal best_cost, best_sets
        nodes[0] += 1
        if nodes[0] > node_limit:
            raise SolverError(f"exact multicover exceeded {node_limit} nodes")
        if cost + lower_bound() >= improvement_ceiling(best_cost):
            return
        element = pick_element()
        if element is None:
            best_cost = cost
            best_sets = tuple(chosen)
            return
        options = sorted(
            (set_id for set_id in containing[element] if set_id not in chosen_set),
            key=lambda sid: costs[sid],
        )
        for set_id in options:
            chosen.append(set_id)
            chosen_set.add(set_id)
            for member in members[set_id]:
                residual[member] -= 1
            descend(cost + costs[set_id])
            for member in members[set_id]:
                residual[member] += 1
            chosen_set.remove(set_id)
            chosen.pop()

    descend(0.0)
    solution = WSCSolution(best_sets, best_cost)
    verify_multicover(instance, demands, solution)
    return solution
