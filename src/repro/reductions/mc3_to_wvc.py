"""Theorem 4.1: MC³ with k ≤ 2 → Weighted Vertex Cover on a bipartite graph.

The graph has a left node per singleton classifier and a right node per
length-2 classifier; each query ``xy`` contributes the two edges
``(X, XY)`` and ``(Y, XY)``.  A vertex cover must, per edge, pick the
singleton or the pair — exactly the choice of how to cover that property
of the query — and the minimum-weight cover corresponds to the optimal
classifier selection.

Singleton queries must have been eliminated first (preprocessing step 1);
the builder enforces this.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.costs import CostModel
from repro.core.properties import Classifier, Query, classifier_sort_key
from repro.exceptions import ReductionError, UncoverableQueryError


class BipartiteWVC:
    """A weighted vertex cover instance over a bipartite graph.

    ``left``/``right`` map node labels (classifiers) to weights;
    ``edges`` are (left label, right label) pairs.  Weights may be
    ``math.inf`` — such nodes exist but can never enter a finite cover.
    """

    def __init__(self) -> None:
        self.left: Dict[Classifier, float] = {}
        self.right: Dict[Classifier, float] = {}
        self.edges: List[Tuple[Classifier, Classifier]] = []

    def add_left(self, label: Classifier, weight: float) -> None:
        self.left.setdefault(label, weight)

    def add_right(self, label: Classifier, weight: float) -> None:
        self.right.setdefault(label, weight)

    def add_edge(self, left_label: Classifier, right_label: Classifier) -> None:
        if left_label not in self.left or right_label not in self.right:
            raise ReductionError("edge endpoints must be added before the edge")
        self.edges.append((left_label, right_label))

    @property
    def num_nodes(self) -> int:
        return len(self.left) + len(self.right)

    def cover_weight(self, cover: Set[Classifier]) -> float:
        total = 0.0
        # Canonical accumulation order: float addition over a hash-
        # ordered set would tie the reported weight to the hash seed.
        for label in sorted(cover, key=classifier_sort_key):
            if label in self.left:
                total += self.left[label]
            elif label in self.right:
                total += self.right[label]
            else:
                raise ReductionError(f"cover contains unknown node {label!r}")
        return total

    def is_cover(self, cover: Set[Classifier]) -> bool:
        return all(u in cover or v in cover for u, v in self.edges)


def mc3_to_bipartite_wvc(queries: Sequence[Query], cost: CostModel) -> BipartiteWVC:
    """Build the bipartite WVC instance for a k = 2 query load.

    Raises :class:`ReductionError` on queries of other lengths and
    :class:`UncoverableQueryError` when a query has no finite-cost cover
    (neither the pair classifier nor both singletons are available).
    """
    graph = BipartiteWVC()
    for q in queries:
        if len(q) != 2:
            raise ReductionError(
                f"the k=2 reduction requires length-2 queries, got {sorted(q)!r}"
            )
        x, y = sorted(q)
        singleton_x = frozenset((x,))
        singleton_y = frozenset((y,))
        pair = frozenset(q)
        weight_x = cost.cost(singleton_x)
        weight_y = cost.cost(singleton_y)
        weight_pair = cost.cost(pair)
        if not (
            math.isfinite(weight_pair)
            or (math.isfinite(weight_x) and math.isfinite(weight_y))
        ):
            raise UncoverableQueryError(q)
        graph.add_left(singleton_x, weight_x)
        graph.add_left(singleton_y, weight_y)
        graph.add_right(pair, weight_pair)
        graph.add_edge(singleton_x, pair)
        graph.add_edge(singleton_y, pair)
    return graph
