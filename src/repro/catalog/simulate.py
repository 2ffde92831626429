"""Catalog simulation: build an item store that realises a query load.

Experiments that measure *search quality* (rather than just construction
cost) need items behind the queries.  :func:`catalog_for_load` generates
a catalog in which every query of an MC³ instance has matching items
whose latent properties include the query (plus noise), a share of
observed annotations (sellers fill in some structured fields), and
distractor items matching nothing — the Figure 1 world, at scale.
"""

from __future__ import annotations

import random

from repro.catalog.items import Catalog, Item
from repro.core.instance import MC3Instance
from repro.exceptions import DatasetError


def catalog_for_load(
    instance: MC3Instance,
    items_per_query: int = 3,
    observe_rate: float = 0.4,
    distractors: int = 0,
    extra_latent: int = 1,
    seed: int = 0,
) -> Catalog:
    """Generate a catalog realising ``instance``'s query load.

    Parameters
    ----------
    items_per_query:
        Matching items created per query (each satisfies the query's
        full conjunction latently).
    observe_rate:
        Probability that a latent property is also observed (structured)
        at upload time.  The gap ``1 - observe_rate`` is what classifier
        completion closes.
    distractors:
        Items whose latent properties are random draws — realistic
        negatives for classifier audits.
    extra_latent:
        Noise properties added to each matching item beyond the query.
    seed:
        Determinism; the same (instance, parameters, seed) always yields
        the same catalog.
    """
    if items_per_query < 1:
        raise DatasetError("items_per_query must be >= 1")
    if not 0.0 <= observe_rate <= 1.0:
        raise DatasetError(f"observe_rate must be in [0, 1], got {observe_rate}")
    rng = random.Random(f"catalog-{seed}")
    pool = sorted(instance.properties)
    catalog = Catalog()
    serial = 0
    for query_index, q in enumerate(instance.queries):
        for copy in range(items_per_query):
            latent = set(q)
            for _ in range(extra_latent):
                latent.add(rng.choice(pool))
            observed = {prop for prop in latent if rng.random() < observe_rate}
            catalog.add(
                Item(
                    item_id=f"item{serial:06d}",
                    title=" ".join(sorted(q)) + f" #{copy}",
                    latent=latent,
                    observed=observed,
                )
            )
            serial += 1
    for _ in range(distractors):
        size = rng.randint(1, min(4, len(pool)))
        latent = set(rng.sample(pool, size))
        observed = {prop for prop in latent if rng.random() < observe_rate}
        catalog.add(
            Item(
                item_id=f"item{serial:06d}",
                title="distractor",
                latent=latent,
                observed=observed,
            )
        )
        serial += 1
    return catalog
