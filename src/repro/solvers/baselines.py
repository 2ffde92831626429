"""Baseline solvers from the paper's experimental study (Section 6.1).

* Property-Oriented — one singleton classifier per property.
* Query-Oriented — one full classifier per query.
* Mixed — the algorithm of the prior work [Dushkin et al., EDBT 2019]:
  uniform costs, k ≤ 2; optimal in that regime via König's theorem.
* Local-Greedy — per iteration, cover the query whose cheapest residual
  cover is globally cheapest, accounting for previous selections.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from repro.core.costs import OverlayCost
from repro.core.instance import MC3Instance
from repro.core.mincover import min_cover
from repro.core.properties import Classifier, Query
from repro.core.solution import Solution
from repro.exceptions import SolverError, UncoverableQueryError
from repro.matching import BipartiteGraph, konig_vertex_cover
from repro.solvers.base import Solver


class PropertyOrientedSolver(Solver):
    """Select every singleton classifier (and nothing else)."""

    name = "property-oriented"

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        selected: Set[Classifier] = set()
        for prop in instance.properties:
            clf = frozenset((prop,))
            if not math.isfinite(instance.weight(clf)):
                raise UncoverableQueryError(
                    clf, f"property-oriented baseline needs singleton {prop!r}, priced at infinity"
                )
            selected.add(clf)
        return Solution.from_instance(selected, instance), {"classifiers": len(selected)}


class QueryOrientedSolver(Solver):
    """Select, for every query, the classifier testing the whole query."""

    name = "query-oriented"

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        selected: Set[Classifier] = set()
        for q in instance.queries:
            if not math.isfinite(instance.weight(q)):
                raise UncoverableQueryError(
                    q, "query-oriented baseline needs the full-query classifier, priced at infinity"
                )
            selected.add(frozenset(q))
        return Solution.from_instance(selected, instance), {"classifiers": len(selected)}


class MixedSolver(Solver):
    """The prior work's algorithm: optimal for *uniform* costs and k ≤ 2.

    Uniform unit costs make the bipartite WVC unweighted, so a minimum
    vertex cover is a maximum matching by König's theorem — no flow
    computation needed.  Instances violating either restriction raise
    :class:`SolverError`, mirroring the paper's usage (BestBuy only).
    """

    name = "mixed"

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        if instance.max_query_length > 2:
            raise SolverError("Mixed handles only queries of length <= 2")
        uniform = self._uniform_cost(instance)

        selected: Set[Classifier] = set()
        for q in instance.queries:
            if len(q) == 1:
                selected.add(frozenset(q))
        graph = BipartiteGraph()
        for q in instance.queries:
            if len(q) == 1:
                continue
            pair = frozenset(q)
            for prop in sorted(q):
                singleton = frozenset((prop,))
                if singleton in selected:
                    # Already forced by a singleton query: this side of the
                    # pair is covered for free, so no edge is needed.
                    continue
                graph.add_left(singleton)
                graph.add_edge(singleton, pair)
        left_cover, right_cover = konig_vertex_cover(graph)
        selected |= left_cover
        selected |= right_cover
        solution = Solution.from_instance(selected, instance)
        return solution, {"uniform_cost": uniform, "classifiers": len(selected)}

    @staticmethod
    def _uniform_cost(instance: MC3Instance) -> float:
        uniform: Optional[float] = None
        for q in instance.queries:
            for clf in instance.candidates(q):
                weight = instance.weight(clf)
                if uniform is None:
                    uniform = weight
                elif weight != uniform:
                    raise SolverError(
                        "Mixed requires uniform classifier costs "
                        f"(saw {uniform} and {weight})"
                    )
        if uniform is None:
            raise SolverError("no finite-cost classifiers available")
        return uniform


class LocalGreedySolver(Solver):
    """Iterative greedy over whole-query covers (Section 6.1).

    Each iteration computes, for every uncovered query, its cheapest
    residual cover (classifiers already selected are free), selects the
    overall cheapest cover, and repeats — covering at least one query per
    iteration.  Cover costs are cached and invalidated only for queries
    sharing a property with the latest selection.
    """

    name = "local-greedy"

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        overlay = OverlayCost(instance.cost)
        selected: Set[Classifier] = set()

        remaining: Dict[int, Query] = dict(enumerate(instance.queries))
        by_property: Dict[str, Set[int]] = {}
        for index, q in remaining.items():
            for prop in q:
                by_property.setdefault(prop, set()).add(index)

        def residual_cover(q: Query):
            pairs = []
            for clf in instance.candidates(q):
                weight = overlay.cost(clf)
                if self._capped(instance, clf):
                    continue
                if math.isfinite(weight):
                    pairs.append((clf, weight))
            return min_cover(q, pairs, required=True)

        cache: Dict[int, object] = {}
        iterations = 0
        while remaining:
            iterations += 1
            best_index = None
            best_cover = None
            for index, q in remaining.items():
                cover = cache.get(index)
                if cover is None:
                    cover = residual_cover(q)
                    cache[index] = cover
                if best_cover is None or cover.cost < best_cover.cost:
                    best_cover = cover
                    best_index = index
            assert best_cover is not None and best_index is not None
            for clf in best_cover.classifiers:
                if clf not in selected:
                    selected.add(clf)
                    overlay.select(clf)
            # Drop queries now fully covered; invalidate caches of queries
            # touching the selected classifiers' properties.
            touched_props = set().union(*best_cover.classifiers) if best_cover.classifiers else set()
            affected = set()
            # RPL101 suppressed below: set-union accumulation commutes.
            for prop in touched_props:  # reprolint: ignore[RPL101]
                affected |= by_property.get(prop, set())
            for index in affected:
                cache.pop(index, None)
            for index in list(affected):
                q = remaining.get(index)
                if q is not None and self._covered(q, selected):
                    del remaining[index]
        solution = Solution.from_instance(selected, instance)
        return solution, {"iterations": iterations}

    @staticmethod
    def _capped(instance: MC3Instance, clf: Classifier) -> bool:
        cap = instance.max_classifier_length
        return cap is not None and len(clf) > cap

    @staticmethod
    def _covered(q: Query, selected: Set[Classifier]) -> bool:
        remaining = set(q)
        # RPL101 suppressed below: set-difference accumulation commutes;
        # the early exit changes nothing observable.
        for clf in selected:  # reprolint: ignore[RPL101]
            if clf <= q:
                remaining -= clf
                if not remaining:
                    return True
        return not remaining
