"""Exact minimum-cost cover of a *single* query (bitmask DP).

Covering one query ``q`` is a weighted set cover over at most ``k``
elements whose candidate sets are the finite-weight subsets of ``q`` —
small enough (``k`` rarely exceeds 5 in practice, Section 2.1) for an
exact ``O(2^k · |candidates|)`` dynamic program.

This primitive backs:

* the Local-Greedy baseline (Section 6.1), which repeatedly finds "the
  least costly cover ... of a single query over all queries";
* preprocessing step 3's forced-cover detection; and
* the exact solver's per-component enumeration on tiny components.

The DP (:func:`~repro.core.kernels.pyjit.min_cover_dp`) and the
irredundant-cover enumeration run on query-local bit masks.
:func:`enumerate_covers_local` exposes the enumeration's mask-native
core directly so mask-based callers (the bitset dominated pruner) skip
the frozenset marshalling the public :func:`min_cover` /
:func:`enumerate_covers` wrappers provide.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernels import pyjit
from repro.core.properties import Classifier, Query
from repro.exceptions import UncoverableQueryError


class QueryCover:
    """Result of a single-query minimum cover computation."""

    __slots__ = ("query", "classifiers", "cost")

    def __init__(self, query: Query, classifiers: Tuple[Classifier, ...], cost: float):
        self.query = query
        self.classifiers = classifiers
        self.cost = cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = ", ".join("+".join(sorted(c)) for c in self.classifiers)
        return f"<QueryCover cost={self.cost} via [{labels}]>"


def min_cover(
    q: Query,
    candidates: Iterable[Tuple[Classifier, float]],
    required: bool = True,
) -> Optional[QueryCover]:
    """Minimum-cost exact cover of query ``q``.

    Parameters
    ----------
    q:
        The query to cover.
    candidates:
        ``(classifier, weight)`` pairs.  Classifiers that are not subsets
        of ``q`` or have non-finite weight are ignored, so callers may
        pass a broader pool.
    required:
        When true (default) an uncoverable query raises
        :class:`UncoverableQueryError`; otherwise ``None`` is returned.

    Returns
    -------
    A :class:`QueryCover` whose classifiers have union exactly ``q`` and
    whose total weight is minimal, with ties broken toward fewer
    classifiers and then deterministic enumeration order.
    """
    full, usable, payload = _compress_candidates(q, candidates)
    outcome = pyjit.min_cover_dp(full, usable)
    if outcome is None:
        if required:
            raise UncoverableQueryError(q)
        return None
    cost, chosen = outcome
    return QueryCover(q, tuple(payload[idx] for idx in chosen), cost)


def min_cover_from_model(q: Query, instance) -> Optional[QueryCover]:
    """Convenience wrapper: candidates come from an
    :class:`~repro.core.instance.MC3Instance`."""
    pairs = ((clf, instance.weight(clf)) for clf in instance.candidates(q))
    return min_cover(q, pairs, required=False)


def enumerate_covers_local(
    full: int,
    usable: Sequence[Tuple[int, float]],
    limit: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> Tuple[List[Tuple[Tuple[int, ...], float]], bool]:
    """Mask-native irredundant-cover enumeration.

    Returns ``(covers, exhausted)`` where each cover is ``(usable
    indices, total weight)`` in deterministic search order, and
    ``exhausted`` reports whether ``node_budget`` cut the search short.
    """
    results: List[Tuple[Tuple[int, ...], float]] = []
    nodes = [0]
    exhausted = [False]

    def is_irredundant(indices: List[int]) -> bool:
        for skip in range(len(indices)):
            mask = 0
            for pos, idx in enumerate(indices):
                if pos != skip:
                    mask |= usable[idx][0]
            if mask == full:
                return False
        return True

    def done() -> bool:
        if limit is not None and len(results) >= limit:
            return True
        if node_budget is not None and nodes[0] > node_budget:
            exhausted[0] = True
            return True
        return False

    def recurse(start: int, mask: int, picked: List[int]) -> None:
        nodes[0] += 1
        if done():
            return
        if mask == full:
            if is_irredundant(picked):
                cost = sum(usable[i][1] for i in picked)
                results.append((tuple(picked), cost))
            return
        for idx in range(start, len(usable)):
            if done():
                return
            clf_mask = usable[idx][0]
            if clf_mask | mask == mask:
                continue  # contributes nothing
            picked.append(idx)
            recurse(idx + 1, mask | clf_mask, picked)
            picked.pop()

    recurse(0, 0, [])
    return results, exhausted[0]


def unique_cover_local(
    length: int, subsets: Tuple[int, ...], node_budget: int
) -> Optional[Tuple[int, ...]]:
    """Indices into ``subsets`` of the only irredundant cover of the full
    ``length``-bit mask, or ``None`` when there is none, there are
    several, or ``node_budget`` ran out first.

    The uniqueness test of preprocessing step 3 (Algorithm 1, line 10).
    :func:`enumerate_covers_local` steers its search, its budget cut-off
    and its picked indices by the masks and their order alone; weights
    enter only the cover costs, which this test never reads, so it takes
    none.
    """
    covers, exhausted = enumerate_covers_local(
        (1 << length) - 1,
        [(subset, 0.0) for subset in subsets],
        limit=2,
        node_budget=node_budget,
    )
    if exhausted or len(covers) != 1:
        return None
    return covers[0][0]


#: :func:`unique_cover_local`, filled on first use.  The dominated
#: pruner asks it for queries of length 4 or less, passing each query's
#: available subsets in its lattice order (a subsequence of the 2^L - 1
#: local submasks in ``iter_subset_masks`` order), so it needs at most
#: 2 + 2^7 + 2^15 answers for its one node budget; the bound only stops
#: other callers from growing it without end.  An answer depends on its
#: key alone, so the table cannot carry state from one query, component
#: or process into another's output.
unique_cover_table = functools.lru_cache(maxsize=2 + 2**7 + 2**15)(unique_cover_local)


def enumerate_covers(
    q: Query,
    candidates: Sequence[Tuple[Classifier, float]],
    limit: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> List[QueryCover]:
    """Enumerate minimal (irredundant) covers of ``q``.

    A cover is *irredundant* if removing any classifier leaves the query
    uncovered.  Exponential in the worst case; used by preprocessing's
    "only one cover possibility" test on small queries and by tests.

    ``limit`` stops the search after that many covers (the uniqueness
    test only needs two).  ``node_budget`` caps the search-tree size; on
    exhaustion the function returns the covers found so far *plus* a
    sentinel duplicate of the last one when at least one was found, so
    callers testing "exactly one cover" conservatively see "more than
    one" rather than a false unique.
    """
    full, usable, payload = _compress_candidates(q, candidates)
    raw, exhausted = enumerate_covers_local(full, usable, limit, node_budget)
    results = [
        QueryCover(q, tuple(payload[idx] for idx in picked), cost)
        for picked, cost in raw
    ]
    if exhausted and results:
        results.append(results[-1])
    return results


def _compress_candidates(
    q: Query, candidates: Iterable[Tuple[Classifier, float]]
) -> Tuple[int, List[Tuple[int, float]], List[Classifier]]:
    """Filter candidates to usable ones and intern them to local masks.

    Bit ``i`` is the ``i``-th property of ``q`` in sorted order, the
    same assignment :class:`~repro.core.bitspace.PropertySpace` uses, so
    enumeration orders (and with them DP tie-breaks) match the
    historical frozenset behaviour.
    """
    index: Dict[str, int] = {prop: i for i, prop in enumerate(sorted(q))}
    full = (1 << len(index)) - 1
    usable: List[Tuple[int, float]] = []
    payload: List[Classifier] = []
    for clf, weight in candidates:
        if not clf or not clf <= q or not math.isfinite(weight):
            continue
        mask = 0
        for prop in clf:
            mask |= 1 << index[prop]
        usable.append((mask, weight))
        payload.append(clf)
    return full, usable, payload
