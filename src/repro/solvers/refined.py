"""Solution refinement: Algorithm 3 plus a remove-and-repair local search.

The WSC approximations occasionally keep a classifier whose queries
could be re-covered more cheaply by combinations that only make sense
*given the rest of the selection* — exactly the blind spot of greedy's
one-way selection.  The refinement pass tries, for every selected
classifier ``c``, to remove it and repair each query it was serving via
the exact single-query DP (all other selected classifiers priced at 0);
if the repair costs less than ``W(c)``, the move is kept.

This is an extension beyond the paper (its experiments stop at
Algorithm 3); it preserves feasibility by construction, never increases
cost, and inherits Algorithm 3's approximation guarantee trivially.

The refinement is a *global* post-pass — it must see the merged
selection including preprocessing's forced classifiers — so the solver
runs the engine-backed :class:`GeneralSolver` first and refines its
output, rather than refining per component.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.costs import OverlayCost
from repro.core.instance import MC3Instance
from repro.core.mincover import min_cover
from repro.core.properties import Classifier, Query, classifier_sort_key
from repro.core.solution import Solution
from repro.preprocess import ALL_STEPS
from repro.solvers.base import Solver
from repro.solvers.general import GeneralSolver


def refine_selection(
    instance: MC3Instance,
    selection: Set[Classifier],
    max_rounds: int = 5,
) -> Tuple[Set[Classifier], int]:
    """Remove-and-repair local search; returns (selection, moves made)."""
    selected = set(selection)
    moves = 0

    def queries_needing(clf: Classifier, current: Set[Classifier]) -> List[Query]:
        """Queries that lose coverage if ``clf`` is removed."""
        broken = []
        others = current - {clf}
        for q in instance.queries:
            if not clf <= q:
                continue
            remaining = set(q)
            # RPL101 suppressed below: set-difference accumulation commutes.
            for other in others:  # reprolint: ignore[RPL101]
                if other <= q:
                    remaining -= other
            if remaining:
                broken.append(q)
        return broken

    for _round in range(max_rounds):
        improved = False
        # Secondary canonical key: sorted() is stable, so without it
        # equal-weight classifiers would keep the set's hash order.
        for clf in sorted(
            selected, key=lambda c: (-instance.weight(c), classifier_sort_key(c))
        ):
            weight = instance.weight(clf)
            if weight <= 0:
                continue
            broken = queries_needing(clf, selected)
            # Repair each broken query with the cheapest residual cover,
            # pricing already-selected classifiers (minus clf) at 0.
            overlay = OverlayCost(instance.cost)
            # RPL101 suppressed below: overlay.select commutes.
            for other in selected:  # reprolint: ignore[RPL101]
                if other != clf:
                    overlay.select(other)
            repair: Set[Classifier] = set()
            repair_cost = 0.0
            feasible = True
            for q in broken:
                pairs = []
                for candidate in instance.candidates(q):
                    if candidate == clf:
                        continue
                    cost = overlay.cost(candidate)
                    if candidate in repair:
                        cost = 0.0
                    if math.isfinite(cost):
                        pairs.append((candidate, cost))
                cover = min_cover(q, pairs, required=False)
                if cover is None:
                    feasible = False
                    break
                for picked in cover.classifiers:
                    if picked not in repair and overlay.cost(picked) > 0:
                        repair.add(picked)
                # ``repair`` is a set: sum in canonical order so the
                # rounded total (and the >= weight cutoffs below) never
                # depend on the hash seed.
                repair_cost = sum(
                    instance.weight(c)
                    for c in sorted(repair, key=classifier_sort_key)
                )
                if repair_cost >= weight:
                    feasible = False
                    break
            if not feasible or repair_cost >= weight - 1e-12:
                continue
            selected.discard(clf)
            selected |= repair
            moves += 1
            improved = True
        if not improved:
            break
    return selected, moves


class RefinedSolver(Solver):
    """Algorithm 3 followed by remove-and-repair refinement.

    Exposes the same ``preprocess_steps`` / ``jobs`` / ``dispatch_k2``
    knobs as the engine-backed solvers (they parameterise the inner
    :class:`GeneralSolver`), so the Figure 3e/3f preprocessing ablation
    and the component-parallel sweeps cover this solver uniformly.
    """

    name = "mc3-refined"

    def __init__(
        self,
        max_rounds: int = 5,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        dispatch_k2: bool = False,
        jobs: int = 1,
        verify: bool = True,
        cache: Optional[object] = None,
        **general_kwargs,
    ):
        super().__init__(verify=verify, jobs=jobs, cache=cache)
        self.max_rounds = max_rounds
        self.preprocess_steps = tuple(preprocess_steps)
        self.dispatch_k2 = dispatch_k2
        # The refinement pass is a global post-pass over the merged
        # selection — only the inner per-component solve is cacheable.
        self._general = GeneralSolver(
            preprocess_steps=preprocess_steps,
            dispatch_k2=dispatch_k2,
            jobs=jobs,
            verify=False,
            cache=cache,
            **general_kwargs,
        )

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        base = self._general.solve(instance)
        refined, moves = refine_selection(
            instance, set(base.solution.classifiers), self.max_rounds
        )
        solution = Solution.from_instance(refined, instance)
        details = dict(base.details)
        details["refinement_moves"] = moves
        details["refinement_saving"] = base.cost - solution.cost
        return solution, details
