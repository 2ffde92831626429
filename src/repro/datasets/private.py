"""The Private-like dataset (Section 6.1, Table 1 row "P").

The original is a proprietary e-commerce log: 10,000 popular queries of
lengths 1–6 across three product categories (Electronics, Fashion,
Home & Garden), with classifier costs 1–63 estimated as normalised
labelled-example counts.  This module generates a stand-in that matches
those published marginals:

* 10,000 queries; lengths 1–6 with a length/frequency inverse
  correlation; costs in [1, 63];
* the Fashion sub-dataset has ~1000 queries, 96% of length ≤ 2 (the
  paper runs separate experiments on that slice — Figure 3d);
* costs are *sub-additive* with property-level base difficulties
  (:class:`~repro.datasets.costmodels.SubAdditiveHashCost`), reproducing
  the regime where multi-property classifiers can undercut the sum of
  their parts.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.instance import MC3Instance
from repro.core.properties import Query
from repro.datasets.composer import CategoryQuerySampler, draw_lengths
from repro.datasets.costmodels import SubAdditiveHashCost
from repro.datasets.vocab import vocabulary
from repro.exceptions import DatasetError

#: Per-category share of the 10,000-query load and length marginals.
CATEGORY_MIX: Dict[str, float] = {"electronics": 0.55, "fashion": 0.10, "home": 0.35}

#: General categories: lengths 1-6, inversely correlated with frequency.
#: Combined with the fashion slice this puts ~80% of the load at length
#: <= 2, matching the share Figure 3b is run on.
GENERAL_LENGTHS: Dict[int, float] = {1: 0.12, 2: 0.66, 3: 0.12, 4: 0.06, 5: 0.03, 6: 0.01}

#: Fashion slice: 96% of queries of length <= 2 (Section 6.1).
FASHION_LENGTHS: Dict[int, float] = {1: 0.30, 2: 0.66, 3: 0.03, 4: 0.01}

COST_LOW = 1
COST_HIGH = 63

#: Long-tail model/series properties per category: the tail grows with
#: the log (real logs accrue new one-off model/team terms roughly
#: linearly in size), keeping the rare-property density — and therefore
#: the baselines' relative behaviour — invariant across scales.
TAIL_DENSITY = 0.5
TAIL_SIZE_MIN = 150


def tail_size_for(count: int) -> int:
    """Tail vocabulary size for a category slice of ``count`` queries."""
    return max(TAIL_SIZE_MIN, round(TAIL_DENSITY * count))


def _base_costs(seed: int, tail_sizes: Dict[str, int]) -> Dict[str, float]:
    """Per-property base difficulty, deterministic in the seed.

    Popular brand-like properties get the upper range (many visual
    variants to learn), colours the lower.  ``tail_sizes`` gives the
    number of tail properties priced per category.  Tail bases use a
    per-property hash-style draw (via a dedicated RNG stream per rank)
    so the price of ``electronics-t7`` does not depend on how many tail
    properties exist — instances of different sizes stay consistent.
    """
    rng = random.Random(f"private-bases-{seed}")
    bases: Dict[str, float] = {}
    for category in sorted(CATEGORY_MIX):
        vocab = vocabulary(category)
        for prop in vocab["types"]:
            bases.setdefault(prop, rng.randint(6, 28))
        for prop in vocab["brands"]:
            bases.setdefault(prop, rng.randint(12, 40))
        for prop in vocab["attributes"]:
            bases.setdefault(prop, rng.randint(5, 30))
        for prop in vocab["colors"]:
            bases.setdefault(prop, rng.randint(3, 12))
        # Tail properties are specific variants: few training examples
        # exist, each must be expert-labelled — the costly end of the
        # range.  Conjunctions restrict the variant space, so the
        # sub-additive discount bites hardest exactly here.
        for rank in range(tail_sizes.get(category, 0)):
            prop = f"{category}-t{rank}"
            bases.setdefault(
                prop, random.Random(f"private-base-{seed}-{prop}").randint(30, 63)
            )
    return bases


def _category_queries(
    category: str, count: int, seed: int
) -> List[Query]:
    rng = random.Random(f"private-{category}-{seed}")
    sampler = CategoryQuerySampler(
        category, rng, skew=0.8, tail_size=tail_size_for(count), tail_weight=0.9
    )
    marginals = FASHION_LENGTHS if category == "fashion" else GENERAL_LENGTHS
    lengths = draw_lengths(rng, count, marginals)
    return sampler.sample_distinct(lengths)


def private_like(n: int = 10_000, seed: int = 0) -> MC3Instance:
    """Generate the full P stand-in dataset (all three categories).

    Categories share colour properties, so a handful of queries can
    collide across categories; a second pass tops the load back up to
    exactly ``n`` distinct queries.
    """
    if n < len(CATEGORY_MIX):
        raise DatasetError(f"n must be >= {len(CATEGORY_MIX)}")
    queries: List[Query] = []
    seen = set()
    remaining = n
    categories = sorted(CATEGORY_MIX)
    tail_sizes: Dict[str, int] = {}
    for index, category in enumerate(categories):
        count = round(n * CATEGORY_MIX[category]) if index < len(categories) - 1 else remaining
        count = min(count, remaining)
        remaining -= count
        tail_sizes[category] = max(
            tail_sizes.get(category, 0), tail_size_for(count)
        )
        for q in _category_queries(category, count, seed):
            if q not in seen:
                seen.add(q)
                queries.append(q)
    top_up = n - len(queries)
    if top_up > 0:
        count = 3 * top_up
        tail_sizes[categories[0]] = max(
            tail_sizes[categories[0]], tail_size_for(count)
        )
        for q in _category_queries(categories[0], count, seed + 104729):
            if q not in seen:
                seen.add(q)
                queries.append(q)
                if len(queries) == n:
                    break
    cost = SubAdditiveHashCost(
        _base_costs(seed, tail_sizes), low=COST_LOW, high=COST_HIGH, seed=seed
    )
    return MC3Instance(queries, cost, name=f"P(n={n},seed={seed})")


def private_like_category(
    category: str, n: int = 1000, seed: int = 0
) -> MC3Instance:
    """One category slice of P (the paper's fashion experiments use
    ``private_like_category("fashion", 1000)``)."""
    if category not in CATEGORY_MIX:
        raise DatasetError(
            f"unknown category {category!r}; expected one of {sorted(CATEGORY_MIX)}"
        )
    queries = _category_queries(category, n, seed)
    cost = SubAdditiveHashCost(
        _base_costs(seed, {category: tail_size_for(n)}),
        low=COST_LOW,
        high=COST_HIGH,
        seed=seed,
    )
    return MC3Instance(queries, cost, name=f"P.{category}(n={n},seed={seed})")


def private_like_short(n: int = 10_000, seed: int = 0) -> MC3Instance:
    """P restricted to queries of length ≤ 2 (~80% of the load), the
    workload of Figure 3b."""
    full = private_like(n, seed)
    return full.restricted_to(lambda q: len(q) <= 2, name=f"P-short(n={n},seed={seed})")
