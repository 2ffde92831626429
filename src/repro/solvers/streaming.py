"""One-pass streaming MC³ solver (extension beyond the paper).

Processes the query load as a *stream*: each query is seen once, in
load order, and the solver either recognises it as already covered by
previously purchased classifiers or buys a minimum-cost cover for its
residual (still-uncovered) properties.  Working state is the purchased
classifier set plus a property-indexed lookup over it — independent of
how many queries have streamed past — so the solver pairs with lazily
materialised loads (:class:`~repro.datasets.scale.LazyQueryLoad`) where
holding the full query list is exactly what we refuse to do.

Like any online rule it has
no sub-logarithmic guarantee — it can never beat the query-oriented
baseline by less than the sharing it happens to discover — but it is
deterministic (no RNG, no ``hash()`` iteration order: queries arrive in
load order and candidate enumeration is the instance's deterministic
``C_q`` order) and always feasible.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.instance import MC3Instance
from repro.core.mincover import min_cover
from repro.core.properties import Classifier
from repro.core.solution import Solution
from repro.exceptions import UncoverableQueryError
from repro.solvers.base import Solver


class StreamingSolver(Solver):
    """Single-pass residual-cover streaming solver.

    For each streamed query ``q``: subtract the union of already-owned
    classifiers usable for ``q`` (``clf ⊆ q``); if properties remain,
    buy the minimum-cost exact cover of that residual sub-query.  The
    purchased pool is shared across all later queries, which is where
    the savings over the query-oriented baseline come from.
    """

    name = "mc3-streaming"

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        selected: Set[Classifier] = set()
        # Owned classifiers indexed by their lexicographically smallest
        # property: ``clf ⊆ q`` requires that property to be in ``q``,
        # so scanning the posting lists of q's properties sees every
        # usable owned classifier without a full pool scan per query.
        by_first_property: Dict[str, List[Classifier]] = {}
        streamed = 0
        already_covered = 0
        covers_bought = 0
        for q in instance.queries:
            streamed += 1
            remaining = set(q)
            for prop in q:
                for clf in by_first_property.get(prop, ()):
                    if clf <= q:
                        remaining -= clf
            if not remaining:
                already_covered += 1
                continue
            residual = frozenset(remaining)
            pairs = ((clf, instance.weight(clf)) for clf in instance.candidates(residual))
            cover = min_cover(residual, pairs, required=False)
            if cover is None:
                raise UncoverableQueryError(q)
            covers_bought += 1
            for clf in cover.classifiers:
                if clf not in selected:
                    selected.add(clf)
                    by_first_property.setdefault(min(clf), []).append(clf)
        details: Dict[str, object] = {
            "queries_streamed": streamed,
            "already_covered": already_covered,
            "covers_bought": covers_bought,
            "classifiers": len(selected),
        }
        return Solution.from_instance(selected, instance), details
