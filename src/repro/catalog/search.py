"""Conjunctive search over observed annotations.

The engine answers a query with the items whose *observed* properties
include all the query's properties — exactly what a production search
backend can do.  Items that satisfy the query only latently are missed;
:class:`SearchQualityReport` quantifies the gap, which classifier-based
completion closes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.catalog.items import Catalog
from repro.core.properties import Query


class SearchQualityReport:
    """Recall of observed search against latent ground truth."""

    def __init__(self, per_query: Dict[Query, float]):
        self.per_query = per_query

    @property
    def mean_recall(self) -> float:
        if not self.per_query:
            return 1.0
        return sum(self.per_query.values()) / len(self.per_query)

    @property
    def fully_answered(self) -> int:
        """Queries with recall 1.0."""
        return sum(1 for recall in self.per_query.values() if recall == 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SearchQualityReport mean_recall={self.mean_recall:.3f} "
            f"full={self.fully_answered}/{len(self.per_query)}>"
        )


class SearchEngine:
    """Inverted-index conjunctive search over a catalog's observed
    annotations.  The index is rebuilt on demand after completion runs."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._index: Dict[str, List[str]] = {}
        self._stale = True

    def refresh(self) -> None:
        """Rebuild the property → item-ids index from observed data."""
        index: Dict[str, List[str]] = {}
        for item in self.catalog:
            for prop in item.observed:
                index.setdefault(prop, []).append(item.item_id)
        self._index = index
        self._stale = False

    def invalidate(self) -> None:
        """Mark the index stale (after annotations changed)."""
        self._stale = True

    def search(self, query: Query) -> List[str]:
        """Item ids whose observed properties include all of ``query``,
        sorted for determinism."""
        if self._stale:
            self.refresh()
        posting_lists = sorted(
            (self._index.get(prop, []) for prop in query), key=len
        )
        if not posting_lists:
            return []
        result = set(posting_lists[0])
        for postings in posting_lists[1:]:
            result.intersection_update(postings)
            if not result:
                break
        return sorted(result)

    def recall(self, query: Query) -> float:
        """|observed matches ∩ true matches| / |true matches| (1.0 when
        nothing truly matches)."""
        truth = {item.item_id for item in self.catalog.items_with_latent(query)}
        if not truth:
            return 1.0
        found = set(self.search(query)) & truth
        return len(found) / len(truth)

    def quality(self, queries: Iterable[Query]) -> SearchQualityReport:
        """Recall per query over a query load."""
        return SearchQualityReport({q: self.recall(q) for q in queries})
