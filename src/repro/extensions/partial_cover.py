"""The *partial cover* variant (Sections 2.1, 5.3 and 8 — the paper's
declared future work, implemented here as an extension).

Queries carry weights reflecting their importance, the classifier budget
is bounded, and the goal is to maximise the total weight of *fully*
covered queries (partially satisfying a query is worthless — the paper
cites evidence it can be worse than not matching at all).

The paper proves nothing positive here and notes the problem is "much
harder to approximate" (its WSC reduction breaks: covering some of a
query's elements gains nothing).  Accordingly this module provides

* :func:`exact_partial_cover` — branch-and-bound optimum for small
  instances (the test oracle);
* :func:`greedy_partial_cover` — a query-bundle greedy: repeatedly buy
  the residual cover with the best covered-weight / incremental-cost
  ratio that still fits the budget;
* :func:`classifier_greedy_partial_cover` — a per-classifier greedy
  (marginal covered weight per cost), cheaper per step but blind to
  multi-classifier bundles.

Both heuristics are feasible-by-construction and anytime; neither
carries an approximation guarantee, matching the paper's assessment.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.costs import OverlayCost
from repro.core.coverage import CoverageChecker
from repro.core.instance import MC3Instance
from repro.core.mincover import min_cover
from repro.core.properties import Classifier, Query
from repro.exceptions import InvalidInstanceError, SolverError


class BudgetedSolution:
    """Outcome of a budgeted partial-cover computation."""

    __slots__ = ("classifiers", "cost", "covered_queries", "covered_weight", "budget")

    def __init__(
        self,
        classifiers: Iterable[Classifier],
        cost: float,
        covered_queries: Iterable[Query],
        covered_weight: float,
        budget: float,
    ):
        self.classifiers: FrozenSet[Classifier] = frozenset(classifiers)
        self.cost = float(cost)
        self.covered_queries: FrozenSet[Query] = frozenset(covered_queries)
        self.covered_weight = float(covered_weight)
        self.budget = float(budget)

    def verify(self, instance: MC3Instance, weights: Mapping[Query, float]) -> "BudgetedSolution":
        """Independent feasibility check: within budget, coverage claims
        true, weight adds up.  Returns self so calls chain."""
        if self.cost > self.budget + 1e-9:
            raise InvalidInstanceError(
                f"budgeted solution spends {self.cost} > budget {self.budget}"
            )
        actual_cost = instance.total_weight(self.classifiers)
        if not math.isclose(actual_cost, self.cost, rel_tol=1e-9, abs_tol=1e-9):
            raise InvalidInstanceError(
                f"recorded cost {self.cost} != instance pricing {actual_cost}"
            )
        checker = CoverageChecker(instance.queries)
        uncovered = set(checker.uncovered_queries(self.classifiers))
        weight = 0.0
        for q in instance.queries:
            covered = q not in uncovered
            if covered != (q in self.covered_queries):
                raise InvalidInstanceError(f"coverage claim wrong for {sorted(q)!r}")
            if covered:
                weight += float(weights.get(q, 1.0))
        if not math.isclose(weight, self.covered_weight, rel_tol=1e-9, abs_tol=1e-9):
            raise InvalidInstanceError(
                f"recorded weight {self.covered_weight} != actual {weight}"
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BudgetedSolution weight={self.covered_weight} cost={self.cost}"
            f"/{self.budget} ({len(self.covered_queries)} queries)>"
        )


def _validate(instance: MC3Instance, weights: Mapping[Query, float], budget: float):
    if budget < 0 or math.isnan(budget):
        raise InvalidInstanceError(f"budget must be >= 0, got {budget}")
    for q, w in weights.items():
        if w < 0 or math.isnan(float(w)):
            raise InvalidInstanceError(f"query weight must be >= 0, got {w}")


def _weight_of(weights: Mapping[Query, float], q: Query) -> float:
    return float(weights.get(q, 1.0))


def _covered_set(instance: MC3Instance, selected: Set[Classifier]) -> Set[Query]:
    checker = CoverageChecker(instance.queries)
    uncovered = set(checker.uncovered_queries(selected))
    return {q for q in instance.queries if q not in uncovered}


def _finish(
    instance: MC3Instance,
    weights: Mapping[Query, float],
    budget: float,
    selected: Set[Classifier],
) -> BudgetedSolution:
    covered = _covered_set(instance, selected)
    return BudgetedSolution(
        selected,
        instance.total_weight(selected),
        covered,
        # In query order, as verify() adds it: ``covered`` is a set.
        sum(_weight_of(weights, q) for q in instance.queries if q in covered),
        budget,
    )


# ----------------------------------------------------------------------
# Exact branch-and-bound (test oracle, small instances)
# ----------------------------------------------------------------------

def exact_partial_cover(
    instance: MC3Instance,
    weights: Mapping[Query, float],
    budget: float,
    node_limit: int = 1_000_000,
) -> BudgetedSolution:
    """Optimal budgeted partial cover by branching on classifiers.

    Branches on the classifier universe (include/exclude, by enumeration
    order); prunes when even covering every remaining query cannot beat
    the incumbent.  Exponential — meant for instances whose universe has
    at most a few dozen classifiers.
    """
    _validate(instance, weights, budget)
    universe = instance.classifier_universe()
    universe = [clf for clf in universe if instance.weight(clf) <= budget]
    costs = [instance.weight(clf) for clf in universe]
    queries = list(instance.queries)
    query_weights = [_weight_of(weights, q) for q in queries]

    # For pruning: which classifiers can help which query.
    usable_for: List[List[int]] = [
        [i for i, clf in enumerate(universe) if clf <= q] for q in queries
    ]

    best_weight = -1.0
    best_selection: Tuple[int, ...] = ()
    best_cost = 0.0
    nodes = [0]

    def covered_weight(selection: Set[int]) -> float:
        total = 0.0
        for qi, q in enumerate(queries):
            remaining = set(q)
            for ci in usable_for[qi]:
                if ci in selection:
                    remaining -= universe[ci]
                    if not remaining:
                        break
            if not remaining:
                total += query_weights[qi]
        return total

    def upper_bound(index: int, selection: Set[int]) -> float:
        """Optimistic: every query that could still be covered by
        selected + remaining classifiers counts fully."""
        total = 0.0
        available = selection | set(range(index, len(universe)))
        for qi, q in enumerate(queries):
            union: Set[str] = set()
            for ci in usable_for[qi]:
                if ci in available:
                    union |= universe[ci]
            if union >= q:
                total += query_weights[qi]
        return total

    def descend(index: int, selection: Set[int], cost: float) -> None:
        nonlocal best_weight, best_selection, best_cost
        nodes[0] += 1
        if nodes[0] > node_limit:
            raise SolverError(
                f"exact partial cover exceeded {node_limit} nodes; instance too large"
            )
        current = covered_weight(selection)
        if current > best_weight or (
            current == best_weight and cost < best_cost
        ):
            best_weight = current
            best_selection = tuple(sorted(selection))
            best_cost = cost
        if index >= len(universe):
            return
        if upper_bound(index, selection) <= best_weight + 1e-12:
            return
        # Include (if affordable), then exclude.
        clf_cost = costs[index]
        if cost + clf_cost <= budget + 1e-12:
            selection.add(index)
            descend(index + 1, selection, cost + clf_cost)
            selection.remove(index)
        descend(index + 1, selection, cost)

    descend(0, set(), 0.0)
    selected = {universe[i] for i in best_selection}
    return _finish(instance, weights, budget, selected)


# ----------------------------------------------------------------------
# Query-bundle greedy
# ----------------------------------------------------------------------

def greedy_partial_cover(
    instance: MC3Instance,
    weights: Mapping[Query, float],
    budget: float,
) -> BudgetedSolution:
    """Repeatedly buy the best-ratio residual query cover that fits.

    Per iteration, computes for every uncovered query its cheapest
    residual cover (already-bought classifiers are free, via the
    single-query DP) and selects the query maximising
    ``weight / incremental cost`` among those whose incremental cost
    fits the remaining budget; zero-incremental-cost covers are always
    taken.  Stops when nothing fits.
    """
    _validate(instance, weights, budget)
    overlay = OverlayCost(instance.cost)
    selected: Set[Classifier] = set()
    spent = 0.0
    remaining: Dict[Query, float] = {
        q: _weight_of(weights, q) for q in instance.queries
    }
    by_property: Dict[str, Set[Query]] = {}
    for q in remaining:
        for prop in q:
            by_property.setdefault(prop, set()).add(q)

    def residual_cover(q: Query):
        pairs = []
        for clf in instance.candidates(q):
            weight = overlay.cost(clf)
            if math.isfinite(weight):
                pairs.append((clf, weight))
        return min_cover(q, pairs, required=False)

    # Residual covers only change for queries sharing a property with a
    # purchase, so they are cached and invalidated selectively.
    cover_cache: Dict[Query, object] = {}

    while remaining:
        best_query: Optional[Query] = None
        best_cover = None
        best_ratio = -1.0
        for q, query_weight in remaining.items():
            cover = cover_cache.get(q)
            if cover is None:
                cover = residual_cover(q)
                cover_cache[q] = cover if cover is not None else "none"
            if cover == "none" or cover is None:
                continue
            if spent + cover.cost > budget + 1e-12:
                continue
            if cover.cost <= 1e-12:
                ratio = math.inf
            elif query_weight <= 0:
                continue
            else:
                ratio = query_weight / cover.cost
            if ratio > best_ratio:
                best_ratio = ratio
                best_query = q
                best_cover = cover
        if best_query is None:
            break
        touched: Set[str] = set()
        for clf in best_cover.classifiers:
            if clf not in selected:
                selected.add(clf)
                overlay.select(clf)
                touched |= clf
        spent += best_cover.cost
        # Invalidate caches of affected queries and collect those the new
        # purchases completed for free.
        affected: Set[Query] = set()
        for prop in touched:
            affected |= by_property.get(prop, set())
        for q in affected:
            cover_cache.pop(q, None)
        for q in affected:
            if q not in remaining:
                continue
            cover = residual_cover(q)
            cover_cache[q] = cover if cover is not None else "none"
            if cover is not None and cover.cost <= 1e-12:
                del remaining[q]

    return _finish(instance, weights, budget, selected)


# ----------------------------------------------------------------------
# Per-classifier greedy
# ----------------------------------------------------------------------

def classifier_greedy_partial_cover(
    instance: MC3Instance,
    weights: Mapping[Query, float],
    budget: float,
) -> BudgetedSolution:
    """Greedy over individual classifiers by marginal covered weight per
    cost (completed-query weight gained by adding the classifier).

    Simpler and faster per step than the bundle greedy but cannot see
    that two classifiers jointly complete a query; the ablation bench
    contrasts the two.
    """
    _validate(instance, weights, budget)
    universe = [
        clf for clf in instance.classifier_universe() if instance.weight(clf) <= budget
    ]
    selected: Set[Classifier] = set()
    spent = 0.0

    # Residual property sets per query.
    residual: Dict[Query, Set[str]] = {q: set(q) for q in instance.queries}

    def gain_of(clf: Classifier) -> float:
        gained = 0.0
        for q, remaining in residual.items():
            if remaining and clf <= q and remaining <= clf:
                gained += _weight_of(weights, q)
        return gained

    while True:
        best_clf: Optional[Classifier] = None
        best_score = 0.0
        for clf in universe:
            if clf in selected:
                continue
            cost = instance.weight(clf)
            if spent + cost > budget + 1e-12:
                continue
            gained = gain_of(clf)
            if gained <= 0:
                continue
            score = gained / cost if cost > 0 else math.inf
            if score > best_score:
                best_score = score
                best_clf = clf
        if best_clf is None:
            break
        selected.add(best_clf)
        spent += instance.weight(best_clf)
        for q, remaining in residual.items():
            if best_clf <= q:
                remaining -= best_clf

    return _finish(instance, weights, budget, selected)
