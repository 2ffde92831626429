"""Query composition shared by the BestBuy-like and Private-like
generators.

Queries are built from a category vocabulary: a product type plus
brands/attributes/colours, drawn with Zipf-like popularity skew so that
popular properties recur across many queries (high incidence ``I``) —
exactly the property-sharing structure the MC³ algorithms exploit.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set

from repro.core.properties import Query
from repro.datasets.vocab import vocabulary
from repro.exceptions import DatasetError


def zipf_choice(rng: random.Random, items: Sequence[str], skew: float = 1.0) -> str:
    """Pick an item with probability proportional to ``1/rank^skew``."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=1)[0]


#: Relative draw weight of each vocabulary section; types dominate
#: (real queries usually anchor on a product type) but any combination
#: can occur, keeping the space of short queries large.
POOL_WEIGHTS = {"types": 1.0, "brands": 0.8, "attributes": 0.6, "colors": 0.5}


class CategoryQuerySampler:
    """Samples distinct conjunctive queries for one category.

    Properties come from a single merged vocabulary with Zipf-skewed
    per-section weights, so any pair of properties can form a query
    (type+brand, colour+type, brand+attribute, …) — matching free-text
    behaviour and keeping the distinct-query space roomy enough for the
    requested length marginals.
    """

    def __init__(
        self,
        category: str,
        rng: random.Random,
        skew: float = 1.0,
        tail_size: int = 0,
        tail_weight: float = 1.2,
        tail_skew: float = 0.15,
    ):
        try:
            vocab = vocabulary(category)
        except KeyError:
            raise DatasetError(f"unknown category {category!r}") from None
        self.category = category
        self.rng = rng
        self.skew = skew
        self._population: List[str] = []
        weights: List[float] = []
        for section, pool_weight in POOL_WEIGHTS.items():
            for rank, prop in enumerate(vocab[section]):
                self._population.append(prop)
                weights.append(pool_weight / (rank + 1) ** skew)
        # Head-only cumulative weights: single-word queries are popular
        # head terms ("laptop"), never obscure tail variants.
        self._head_population = list(self._population)
        self._head_cum_weights: List[float] = []
        head_total = 0.0
        for weight in weights:
            head_total += weight
            self._head_cum_weights.append(head_total)
        # Long tail of specific model/series/team properties (the paper's
        # "Juventus #14" style): individually rare, collectively a large
        # share of the query mass — the regime where cheap conjunction
        # classifiers beat expensive rare singletons.  Tail draws are
        # nearly flat (``tail_skew`` << head skew): model numbers and team
        # names are one-off terms.  ``tail_weight`` is the total tail draw
        # mass relative to the head's (e.g. 1.5 = 60% of non-singleton
        # property draws come from the tail).
        if tail_size > 0:
            raw = [1.0 / (rank + 1) ** tail_skew for rank in range(tail_size)]
            scale = tail_weight * head_total / sum(raw)
            for rank in range(tail_size):
                self._population.append(f"{category}-t{rank}")
                weights.append(raw[rank] * scale)
        # Cumulative weights let random.choices skip re-normalisation.
        self._cum_weights: List[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            self._cum_weights.append(total)

    def sample_query(self, length: int) -> Query:
        """One query of exactly ``length`` distinct properties."""
        if length < 1:
            raise DatasetError("query length must be >= 1")
        if length > len(self._population):
            raise DatasetError(
                f"vocabulary of {self.category!r} too small for length {length}"
            )
        population = self._population if length > 1 else self._head_population
        cum_weights = self._cum_weights if length > 1 else self._head_cum_weights
        chosen: Set[str] = set()
        attempts = 0
        while len(chosen) < length:
            prop = self.rng.choices(population, cum_weights=cum_weights, k=1)[0]
            chosen.add(prop)
            attempts += 1
            if attempts > 100 * length:
                raise DatasetError(
                    f"vocabulary of {self.category!r} too skewed for length {length}"
                )
        return frozenset(chosen)

    def sample_distinct(
        self, lengths: Sequence[int], max_attempts: int = 500
    ) -> List[Query]:
        """Distinct queries matching the requested length sequence.

        When the space of some length saturates (hundreds of consecutive
        duplicates), the query is lengthened by one instead of looping
        forever; this slightly fattens the tail but preserves the head
        marginals, and generators size their vocabularies so it is rare.
        """
        queries: List[Query] = []
        seen: Set[Query] = set()
        for length in lengths:
            attempts = 0
            while True:
                q = self.sample_query(length)
                if q not in seen:
                    seen.add(q)
                    queries.append(q)
                    break
                attempts += 1
                if attempts > max_attempts:
                    length += 1
                    attempts = 0
        return queries


def draw_lengths(
    rng: random.Random, n: int, distribution: Dict[int, float]
) -> List[int]:
    """Draw ``n`` query lengths from an explicit ``{length: prob}`` table."""
    lengths = sorted(distribution)
    weights = [distribution[length] for length in lengths]
    return rng.choices(lengths, weights=weights, k=n)
