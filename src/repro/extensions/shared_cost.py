"""Overlapping construction costs (Section 8 future work).

The paper's model prices classifiers independently and notes that in
practice "there may be some overlap, e.g., in terms of data labeling or
crowd-worker time", leaving a set-level cost model as future work.
This extension implements one:

* a classifier's cost is apportioned to its properties (harder
  properties need more labelled examples);
* when several selected classifiers test the same property, a fraction
  ``sigma`` of the duplicated per-property work is shared (labelling a
  shirt's brand once serves every classifier that checks the brand) —
  only the largest per-property share is paid in full;
* the resulting set function is subadditive and equals the paper's
  additive model at ``sigma = 0``.

Because Algorithm 3 optimises the additive proxy, its solution is a
natural starting point; :func:`shared_cost_local_search` then exploits
sharing with feasibility-preserving moves (add / drop / swap-decompose).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from repro.core.coverage import CoverageChecker
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier, Query, iter_nonempty_subsets
from repro.exceptions import InvalidInstanceError


class SharedLabelingCost:
    """Set-level cost with per-property work sharing.

    Parameters
    ----------
    instance:
        Supplies the additive per-classifier costs ``W``.
    sigma:
        Sharing coefficient in [0, 1]: the fraction of *duplicated*
        per-property work that is saved.  0 recovers the additive model;
        1 means a property is labelled once no matter how many selected
        classifiers test it.
    property_difficulty:
        Optional relative difficulty per property, used to apportion a
        classifier's cost to its properties (default: equal shares).
    """

    def __init__(
        self,
        instance: MC3Instance,
        sigma: float = 0.5,
        property_difficulty: Optional[Mapping[str, float]] = None,
    ):
        if not 0 <= sigma <= 1:
            raise InvalidInstanceError(f"sigma must be in [0, 1], got {sigma}")
        self.instance = instance
        self.sigma = float(sigma)
        self._difficulty = dict(property_difficulty or {})
        for prop, value in self._difficulty.items():
            if value <= 0 or math.isnan(value):
                raise InvalidInstanceError(
                    f"difficulty of {prop!r} must be > 0, got {value}"
                )

    def _shares(self, clf: Classifier) -> Dict[str, float]:
        """Apportion ``W(clf)`` to its properties."""
        total_weight = self.instance.weight(clf)
        if not math.isfinite(total_weight):
            return {}
        raw = {prop: self._difficulty.get(prop, 1.0) for prop in clf}
        denominator = sum(raw.values())
        return {prop: total_weight * value / denominator for prop, value in raw.items()}

    def set_cost(self, classifiers: Iterable[Classifier]) -> float:
        """Cost of building the whole set, with sharing."""
        selected = set(classifiers)
        additive = 0.0
        per_property: Dict[str, List[float]] = {}
        for clf in selected:
            weight = self.instance.weight(clf)
            if not math.isfinite(weight):
                return math.inf
            additive += weight
            for prop, share in self._shares(clf).items():
                per_property.setdefault(prop, []).append(share)
        saving = 0.0
        for shares in per_property.values():
            if len(shares) > 1:
                saving += self.sigma * (sum(shares) - max(shares))
        return additive - saving

    def marginal_cost(self, clf: Classifier, selected: Iterable[Classifier]) -> float:
        """Incremental cost of adding ``clf`` to ``selected``."""
        selected = set(selected)
        if clf in selected:
            return 0.0
        return self.set_cost(selected | {clf}) - self.set_cost(selected)


class LocalSearchResult:
    """Outcome of the overlap-aware local search."""

    def __init__(
        self,
        classifiers: FrozenSet[Classifier],
        cost: float,
        start_cost: float,
        moves: List[str],
    ):
        self.classifiers = classifiers
        self.cost = cost
        self.start_cost = start_cost
        self.moves = moves

    @property
    def improvement(self) -> float:
        if self.start_cost == 0:
            return 0.0
        return 1.0 - self.cost / self.start_cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LocalSearchResult cost={self.cost:g} (start {self.start_cost:g}, "
            f"{len(self.moves)} moves)>"
        )


def shared_cost_local_search(
    instance: MC3Instance,
    cost: SharedLabelingCost,
    start: Iterable[Classifier],
    max_rounds: int = 20,
) -> LocalSearchResult:
    """Improve a feasible selection under the set-level cost.

    Moves, tried to local optimality each round:

    * **drop** — remove a classifier whose absence keeps every query
      covered (sharing can make a classifier pure overhead);
    * **re-cover** — for a query, add the classifiers of one of its
      alternative irredundant covers, then greedily drop whatever became
      redundant, and keep the result if the set-level cost improved.
      Adding before dropping lets the search cross additive-cost hills
      (e.g. migrate from shared singletons to a family of pair
      classifiers pooled on one property).

    Feasibility is re-verified against the independent coverage checker
    after every accepted move.
    """
    from repro.core.mincover import enumerate_covers

    checker = CoverageChecker(instance.queries)
    selected: Set[Classifier] = set(start)
    if not checker.all_covered(selected):
        raise InvalidInstanceError("local search requires a feasible starting selection")
    start_cost = cost.set_cost(selected)
    current = start_cost
    moves: List[str] = []

    def greedy_drop(candidate: Set[Classifier]) -> Set[Classifier]:
        """Remove classifiers while feasibility holds and cost falls."""
        candidate = set(candidate)
        changed = True
        while changed:
            changed = False
            base_cost = cost.set_cost(candidate)
            for clf in sorted(candidate, key=lambda c: -instance.weight(c)):
                reduced = candidate - {clf}
                if not checker.all_covered(reduced):
                    continue
                # Strictly improving drops only: a tie would immediately
                # undo the classifier a re-cover move just added.
                if cost.set_cost(reduced) < base_cost - 1e-12:
                    candidate = reduced
                    changed = True
                    break
        return candidate

    def try_selection(candidate: Set[Classifier], label: str) -> bool:
        nonlocal selected, current
        if not checker.all_covered(candidate):
            return False
        candidate_cost = cost.set_cost(candidate)
        if candidate_cost < current - 1e-9:
            selected = candidate
            current = candidate_cost
            moves.append(label)
            return True
        return False

    def alternative_covers(q: Query):
        candidates = [
            (clf, instance.weight(clf))
            for clf in iter_nonempty_subsets(q, instance.max_classifier_length)
            if math.isfinite(instance.weight(clf))
        ]
        return enumerate_covers(q, candidates, limit=24, node_budget=4000)

    for _round in range(max_rounds):
        improved = False

        # Drop moves.
        for clf in sorted(selected, key=lambda c: -instance.weight(c)):
            if try_selection(selected - {clf}, f"drop {sorted(clf)}"):
                improved = True

        # Re-cover moves.
        for q in instance.queries:
            for cover in alternative_covers(q):
                additions = set(cover.classifiers) - selected
                if not additions:
                    continue
                candidate = greedy_drop(selected | additions)
                if try_selection(candidate, f"recover {sorted(q)}"):
                    improved = True
                    break

        if not improved:
            break

    return LocalSearchResult(frozenset(selected), current, start_cost, moves)
