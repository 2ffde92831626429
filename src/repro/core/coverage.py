"""Coverage semantics of MC³ (Section 2.1).

A query ``q`` is covered by a set ``S`` of classifiers iff some
``T ⊆ S`` has ``P(T) = q``.  Because every classifier in such a ``T``
must be a subset of ``q`` (otherwise the union would spill outside
``q``), this is equivalent to the simpler test used here:

    the union of all classifiers in ``S`` that are subsets of ``q``
    equals ``q``.

This module is the *independent* feasibility oracle: solvers never use it
to construct solutions, only tests and the verification layer do, so a
bug in a solver cannot hide behind a matching bug in its own coverage
logic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.core.properties import Classifier, Query
from repro.exceptions import InfeasibleSolutionError


def is_covered(q: Query, selected: Iterable[Classifier]) -> bool:
    """Whether query ``q`` is covered by the classifiers in ``selected``."""
    remaining: Set[str] = set(q)
    for clf in selected:
        if clf <= q:
            remaining -= clf
            if not remaining:
                return True
    return not remaining


def covering_subset(q: Query, selected: Iterable[Classifier]) -> List[Classifier]:
    """The witnesses: all selected classifiers usable for ``q`` (subsets of
    ``q``).  Their union equals ``q`` iff ``q`` is covered."""
    return [clf for clf in selected if clf <= q]


class CoverageChecker:
    """Coverage checking for a fixed query load.

    Each call indexes the selection once: the selected set itself, the
    properties of its singletons, and its multi-property classifiers
    listed by property.  Each query is then tested on its own, so the
    cost follows the load and the selection, never the ``2^|q|``
    subsets of a query.
    """

    def __init__(self, queries: Iterable[Query]):
        self.queries: List[Query] = list(queries)

    def uncovered_queries(self, selected: Iterable[Classifier]) -> List[Query]:
        """The queries not covered by ``selected``, in load order.

        A query is covered when it is selected itself or lies inside the
        selected singletons.  Otherwise each property the singletons
        miss must lie in a selected classifier inside the query, and
        only those properties' multi-property classifiers are walked.
        """
        chosen = set(selected)
        singles: Set[str] = set()
        by_property: Dict[str, List[Classifier]] = {}
        # The order only decides which witness a query finds first.
        for clf in chosen:  # reprolint: ignore[RPL101]
            if len(clf) == 1:
                singles |= clf
            else:
                for prop in clf:
                    by_property.setdefault(prop, []).append(clf)
        missing: List[Query] = []
        for q in self.queries:
            if q in chosen or q <= singles:
                continue
            left = set(q - singles)
            for prop in q:
                if prop in left:
                    # Every classifier listed under ``prop`` holds it, so
                    # the first one inside ``q`` settles it.
                    for clf in by_property.get(prop, ()):
                        if clf <= q:
                            left -= clf
                            break
                    else:
                        missing.append(q)
                        break
        return missing

    def all_covered(self, selected: Iterable[Classifier]) -> bool:
        """Whether every query in the load is covered by ``selected``."""
        return not self.uncovered_queries(selected)

    def verify(self, selected: Iterable[Classifier]) -> None:
        """Raise :class:`InfeasibleSolutionError` unless ``selected``
        covers every query of the load."""
        missing = self.uncovered_queries(selected)
        if missing:
            sample = ", ".join("+".join(sorted(q)) for q in missing[:5])
            raise InfeasibleSolutionError(
                f"{len(missing)} quer{'y is' if len(missing) == 1 else 'ies are'} "
                f"not covered (e.g. {sample})"
            )


def verify_cover(queries: Iterable[Query], selected: Iterable[Classifier]) -> None:
    """Raise :class:`InfeasibleSolutionError` unless ``selected`` covers
    every query.  Used as the final check on every solver output."""
    CoverageChecker(queries).verify(selected)
