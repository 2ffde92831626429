"""Primal–dual ``f``-approximation for WSC (LP-free).

The dual of the WSC relaxation assigns a value ``y_e`` to each element
subject to ``Σ_{e ∈ s} y_e ≤ c_s``.  The primal–dual scheme visits each
uncovered element, raises its dual until some containing set becomes
tight, and selects all tight sets.  Every selected set is paid for by
the duals of its elements, and each element pays into at most ``f``
sets, so the cost is at most ``f · Σ y_e ≤ f · OPT``.  The duals stay
feasible, so ``Σ y_e`` is itself a lower bound on OPT; the solution
carries it as ``lower_bound``.

Same worst-case guarantee as LP rounding but linear time, which is what
Algorithm 3 needs on synthetic loads whose LPs would have tens of
millions of nonzeros.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.setcover.instance import WSCInstance, WSCSolution


def primal_dual_wsc(
    instance: WSCInstance,
    element_order: Optional[Sequence[int]] = None,
    prune: bool = False,
) -> WSCSolution:
    """Run the primal–dual scheme.

    ``element_order`` fixes the order in which uncovered elements raise
    their duals (default: element-id order); different orders give
    different — all ``f``-approximate — covers, which the ablation bench
    exploits.  ``prune=True`` drops redundant sets afterwards (extension;
    preserves the guarantee).
    """
    instance.validate_coverable()
    universe = instance.universe_size
    residual = [instance.set_cost(set_id) for set_id in range(instance.num_sets)]
    tight = [False] * instance.num_sets
    covered = [False] * universe
    selected: List[int] = []

    dual_sum = 0.0
    order = range(universe) if element_order is None else element_order
    for element_id in order:
        if covered[element_id]:
            continue
        containing = instance.sets_containing(element_id)
        delta = min(residual[set_id] for set_id in containing)
        dual_sum += delta
        for set_id in containing:
            residual[set_id] -= delta
            if residual[set_id] <= 1e-12 and not tight[set_id]:
                tight[set_id] = True
                selected.append(set_id)
                for member in instance.set_members(set_id):
                    covered[member] = True

    if prune:
        selected = instance.prune_redundant(selected)
    cost = sum(instance.set_cost(set_id) for set_id in selected)
    solution = WSCSolution(selected, cost, lower_bound=dual_sum)
    instance.verify_solution(solution)
    return solution
