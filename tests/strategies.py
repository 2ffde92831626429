"""Hypothesis strategies for MC³ objects.

Unlike the integer-seed + ``random`` recipes in ``conftest.py`` (fast,
but opaque to shrinking), these composite strategies let hypothesis
shrink failing instances to minimal counterexamples: fewer queries,
shorter queries, fewer priced classifiers, smaller weights.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost
from repro.core.properties import iter_nonempty_subsets

PROPERTY_NAMES = [f"p{i}" for i in range(8)]

properties = st.sampled_from(PROPERTY_NAMES)

queries = st.frozensets(properties, min_size=1, max_size=4)

weights = st.one_of(
    st.integers(min_value=0, max_value=30).map(float),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def mc3_instances(
    draw,
    min_queries: int = 1,
    max_queries: int = 6,
    price_all: bool = True,
    drop_rate: float = 0.3,
    max_query_length: int = 4,
) -> MC3Instance:
    """A coverable random instance with an explicit cost table.

    ``price_all=False`` drops a share of non-singleton classifiers
    (infinite weight) while keeping singletons, so every query stays
    coverable.  Queries have at most ``max_query_length`` properties
    (at most ``len(PROPERTY_NAMES)``).
    """
    query_strategy = st.frozensets(properties, min_size=1, max_size=max_query_length)
    query_set = draw(
        st.frozensets(query_strategy, min_size=min_queries, max_size=max_queries)
    )
    if not query_set:
        query_set = frozenset([draw(query_strategy)])
    table: Dict[FrozenSet[str], float] = {}
    for q in sorted(query_set, key=sorted):
        for clf in iter_nonempty_subsets(q):
            if clf in table:
                continue
            if not price_all and len(clf) > 1 and draw(st.booleans()):
                continue
            table[clf] = draw(weights)
    return MC3Instance(sorted(query_set, key=sorted), TableCost(table))


@st.composite
def k2_instances(draw, min_queries: int = 1, max_queries: int = 8) -> MC3Instance:
    """Instances whose queries all have length ≤ 2."""
    short_queries = st.frozensets(properties, min_size=1, max_size=2)
    query_set = draw(
        st.frozensets(short_queries, min_size=min_queries, max_size=max_queries)
    )
    if not query_set:
        query_set = frozenset([draw(short_queries)])
    table: Dict[FrozenSet[str], float] = {}
    for q in sorted(query_set, key=sorted):
        for clf in iter_nonempty_subsets(q):
            if clf not in table:
                table[clf] = draw(weights)
    return MC3Instance(sorted(query_set, key=sorted), TableCost(table))
