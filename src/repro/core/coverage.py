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

from repro.core.properties import Classifier, PropertySet, Query
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
    """Indexed coverage checking for a fixed query load.

    Builds a property → queries inverted index once, then answers
    "which queries does classifier ``c`` help" and "is the whole load
    covered" without re-scanning the query list per classifier.
    """

    def __init__(self, queries: Iterable[Query]):
        self.queries: List[Query] = list(queries)
        self._by_property: Dict[str, List[int]] = {}
        for index, q in enumerate(self.queries):
            for prop in q:
                self._by_property.setdefault(prop, []).append(index)

    def queries_with_property(self, prop: str) -> List[int]:
        """Indices of queries containing ``prop``."""
        return self._by_property.get(prop, [])

    def applicable_queries(self, clf: Classifier) -> List[int]:
        """Indices of queries that ``clf`` can help cover (``clf ⊆ q``),
        ascending.

        Every query ``q ⊇ clf`` holds each of ``clf``'s properties, so
        the posting list of the rarest one lists all of them: walk it and
        keep the queries with ``clf <= q``.  A singleton's posting list is
        the answer as it stands (returned as is, like
        :meth:`queries_with_property`).
        """
        by_property = self._by_property
        if len(clf) == 1:
            (prop,) = clf
            return by_property.get(prop, [])
        # Which of equally rare lists is walked cannot change the
        # queries found, so the hash order of ``clf`` is harmless.
        rarest: List[int] = []
        for prop in clf:
            postings = by_property.get(prop)
            if postings is None:
                return []
            if not rarest or len(postings) < len(rarest):
                rarest = postings
        queries = self.queries
        return [index for index in rarest if clf <= queries[index]]

    def uncovered_queries(self, selected: Iterable[Classifier]) -> List[Query]:
        """The queries not covered by ``selected``, in load order."""
        remaining: List[Set[str]] = [set(q) for q in self.queries]
        applicable = self.applicable_queries
        for clf in selected:
            for index in applicable(clf):
                remaining[index] -= clf
        return [self.queries[i] for i, rem in enumerate(remaining) if rem]

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
