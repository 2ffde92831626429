"""The MC³ problem instance: a query load plus a classifier cost model.

An :class:`MC3Instance` bundles the paper's input ``⟨Q, W⟩`` (Section 2.1)
with the derived quantities the algorithms need: the property universe,
the maximal query length ``k``, per-query candidate classifiers, and the
incidence parameter ``I`` used by the approximation bounds.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.costs import CostModel, TableCost
from repro.core.properties import (
    Classifier,
    PropertySet,
    Query,
    classifier_sort_key,
    iter_nonempty_subsets,
    query as make_query,
    union_of,
)
from repro.exceptions import InvalidInstanceError, UncoverableQueryError

CostSpec = Union[CostModel, Mapping[object, float]]


class MC3Instance:
    """An instance ``⟨Q, W⟩`` of the MC³ problem.

    Parameters
    ----------
    queries:
        The query load.  Each query may be given as an iterable of
        property names or a whitespace-separated string.  Duplicates are
        removed (the paper's ``Q`` is a set of *distinct* queries).
    cost:
        Either a :class:`~repro.core.costs.CostModel` or a plain mapping
        ``classifier -> weight`` (wrapped in a
        :class:`~repro.core.costs.TableCost` with missing entries priced
        at ``∞``).
    max_classifier_length:
        Optional bound ``k'`` on classifier length (Section 5.3, *bounded
        classifiers*).  Candidate enumeration skips longer classifiers;
        this composes with, and is cheaper than, pricing them at ``∞``.
    name:
        Optional label used in reports.
    """

    def __init__(
        self,
        queries: Iterable[object],
        cost: CostSpec,
        max_classifier_length: Optional[int] = None,
        name: str = "",
    ):
        canonical: List[Query] = []
        seen = set()
        for spec in queries:
            q = make_query(spec)
            if q not in seen:
                seen.add(q)
                canonical.append(q)
        if not canonical:
            raise InvalidInstanceError("an MC3 instance needs at least one query")
        self._queries: Tuple[Query, ...] = tuple(canonical)

        if isinstance(cost, CostModel):
            self._cost = cost
        else:
            self._cost = TableCost(cost)

        if max_classifier_length is not None and max_classifier_length < 1:
            raise InvalidInstanceError("max_classifier_length must be >= 1")
        self.max_classifier_length = max_classifier_length
        self.name = name

        self._properties: Optional[PropertySet] = None
        self._max_query_length: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def queries(self) -> Tuple[Query, ...]:
        """The distinct queries, in input order."""
        return self._queries

    @property
    def cost(self) -> CostModel:
        """The weighting function ``W``."""
        return self._cost

    @property
    def n(self) -> int:
        """Number of queries (the paper's ``n``)."""
        return len(self._queries)

    @property
    def properties(self) -> PropertySet:
        """The property universe ``P`` (only properties used by queries)."""
        if self._properties is None:
            self._properties = union_of(self._queries)
        return self._properties

    @property
    def max_query_length(self) -> int:
        """The paper's ``k``: length of the longest query."""
        if self._max_query_length is None:
            self._max_query_length = max(len(q) for q in self._queries)
        return self._max_query_length

    def weight(self, clf: Classifier) -> float:
        """``W(clf)``, honouring the instance-level length bound."""
        if self.max_classifier_length is not None and len(clf) > self.max_classifier_length:
            return math.inf
        return self._cost.cost(clf)

    def cost_content_token(self, scope: Optional[Sequence[str]] = None):
        """Canonical digest of this instance's pricing inside ``scope``, or ``None``.

        Combines the cost model's scoped
        :meth:`~repro.core.costs.CostModel.content_token` with the
        instance-level length cap (which :meth:`weight` applies on top
        of the model) — everything :func:`~repro.core.bitspace.component_fingerprint`
        needs to skip pricing candidates one by one.  ``scope`` is a
        sorted property tuple and defaults to this instance's own
        properties, which contain every candidate classifier.  ``None``
        when the model is opaque (e.g. :class:`~repro.core.costs.CallableCost`).
        """
        if scope is None:
            scope = tuple(sorted(self.properties))
        token = self._cost.content_token(scope)
        if token is None:
            return None
        return token + str(self.max_classifier_length).encode("utf-8")

    def total_weight(self, classifiers: Iterable[Classifier]) -> float:
        """``W(S)`` — the sum of individual classifier weights.

        Summed in :func:`~repro.core.properties.classifier_sort_key`
        order, so the float is the same whatever order (or hash seed)
        the set arrives in.
        """
        return sum(
            self.weight(clf) for clf in sorted(classifiers, key=classifier_sort_key)
        )

    # ------------------------------------------------------------------
    # Candidate classifiers
    # ------------------------------------------------------------------

    def candidates(self, q: Query) -> Iterator[Classifier]:
        """Finite-weight classifiers usable for query ``q``.

        Enumerates the paper's ``C_q`` (all non-empty subsets of ``q``),
        filtered to finite weight and the optional length bound, by
        increasing length.
        """
        for clf in iter_nonempty_subsets(q, self.max_classifier_length):
            if math.isfinite(self.weight(clf)):
                yield clf

    def classifier_universe(self) -> List[Classifier]:
        """Materialise ``C_Q = ⋃_q C_q`` restricted to finite weights.

        Deterministic order: by first query that contributes the
        classifier, then the per-query enumeration order.  Beware: the
        size is ``O(n · 2^(k-1))``; intended for small/medium instances
        and tests, not the 100k-query synthetic load.
        """
        seen = set()
        ordered: List[Classifier] = []
        for q in self._queries:
            for clf in self.candidates(q):
                if clf not in seen:
                    seen.add(clf)
                    ordered.append(clf)
        return ordered

    # ------------------------------------------------------------------
    # Incidence (Section 5) and validation
    # ------------------------------------------------------------------

    def queries_containing(self, props: PropertySet) -> List[Query]:
        """``Q_S``: the queries that include all properties in ``props``."""
        return [q for q in self._queries if props <= q]

    def incidence_of(self, clf: Classifier) -> int:
        """``I(S)``: number of queries containing ``S`` (0 if ``W(S) = ∞``)."""
        if not math.isfinite(self.weight(clf)):
            return 0
        return sum(1 for q in self._queries if clf <= q)

    def incidence(self) -> int:
        """The instance incidence ``I = max_S I(S)``.

        The maximum is always attained by a singleton classifier of finite
        weight when one exists (supersets can only appear in fewer
        queries), but zero-/infinite-weight patterns mean we check every
        candidate singleton and, if none is finite, fall back to scanning
        the full universe.
        """
        best = 0
        finite_singleton = False
        counts: Dict[str, int] = {}
        for q in self._queries:
            for prop in q:
                counts[prop] = counts.get(prop, 0) + 1
        for prop, count in counts.items():
            if math.isfinite(self.weight(frozenset((prop,)))):
                finite_singleton = True
                best = max(best, count)
        if finite_singleton:
            return best
        for clf in self.classifier_universe():
            best = max(best, self.incidence_of(clf))
        return best

    def validate_coverable(self) -> None:
        """Raise :class:`UncoverableQueryError` if some query has no
        finite-weight cover (the union of its finite candidates must equal
        the query)."""
        for q in self._queries:
            reachable = union_of(self.candidates(q))
            if reachable != q:
                raise UncoverableQueryError(q)

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------

    def subset(self, size: int, order: Optional[Sequence[int]] = None, name: str = "") -> "MC3Instance":
        """Instance over the first ``size`` queries of ``order`` (or input
        order).  Used by the experiment sweeps over query-load cardinality
        (Section 6.1, "we also randomly select subsets of this query set
        of different cardinalities")."""
        if not 1 <= size <= self.n:
            raise InvalidInstanceError(f"subset size must be in [1, {self.n}], got {size}")
        if order is None:
            picked = self._queries[:size]
        else:
            picked = tuple(self._queries[i] for i in order[:size])
        return MC3Instance(
            picked,
            self._cost,
            max_classifier_length=self.max_classifier_length,
            name=name or f"{self.name}[{size}]",
        )

    def restricted_to(self, predicate, name: str = "") -> "MC3Instance":
        """Instance over the queries satisfying ``predicate`` (e.g. the
        short-query slice of the Private dataset)."""
        picked = [q for q in self._queries if predicate(q)]
        if not picked:
            raise InvalidInstanceError("restriction leaves no queries")
        return MC3Instance(
            picked,
            self._cost,
            max_classifier_length=self.max_classifier_length,
            name=name or f"{self.name}|restricted",
        )

    def split_by_length(self, threshold: int = 2) -> Tuple[Optional["MC3Instance"], Optional["MC3Instance"]]:
        """Split into (length ``<= threshold``, length ``> threshold``)
        sub-instances; either side may be ``None``.  This is the partition
        used by the Short-First strategy (Section 4, *Almost k = 2*)."""
        short = [q for q in self._queries if len(q) <= threshold]
        long_ = [q for q in self._queries if len(q) > threshold]
        short_inst = (
            MC3Instance(short, self._cost, self.max_classifier_length, f"{self.name}|short")
            if short
            else None
        )
        long_inst = (
            MC3Instance(long_, self._cost, self.max_classifier_length, f"{self.name}|long")
            if long_
            else None
        )
        return short_inst, long_inst

    def with_cost(self, cost: CostSpec, name: str = "") -> "MC3Instance":
        """Same queries, different weighting function."""
        return MC3Instance(
            self._queries,
            cost,
            max_classifier_length=self.max_classifier_length,
            name=name or self.name,
        )

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "MC3Instance"
        return f"<{label}: n={self.n}, |P|={len(self.properties)}, k={self.max_query_length}>"
