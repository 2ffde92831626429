"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.core import MC3Instance, TableCost
from repro.core.properties import iter_nonempty_subsets

Classifier = FrozenSet[str]


@pytest.fixture
def example11() -> MC3Instance:
    """The paper's Example 1.1; optimal cost is 7 via {AC, AJ, W}."""
    return MC3Instance(
        queries=["juventus white adidas", "chelsea adidas"],
        cost={
            "chelsea": 5, "adidas": 5, "juventus": 5, "white": 1,
            "adidas chelsea": 3, "adidas white": 5, "adidas juventus": 3,
            "juventus white": 4, "adidas juventus white": 5,
        },
        name="example-1.1",
    )


def random_instance(
    seed: int,
    num_properties: int = 8,
    num_queries: int = 6,
    max_length: int = 3,
    cost_range: Tuple[int, int] = (1, 20),
    all_classifiers: bool = True,
    missing_fraction: float = 0.0,
) -> MC3Instance:
    """A small random instance with an explicit cost table.

    ``all_classifiers=True`` prices every relevant classifier;
    ``missing_fraction`` drops a share of the *non-singleton* classifiers
    (pricing them at infinity) while keeping instances coverable.
    """
    rng = random.Random(seed)
    props = [f"p{i}" for i in range(num_properties)]
    queries = set()
    attempts = 0
    while len(queries) < num_queries and attempts < 1000:
        length = rng.randint(1, max_length)
        queries.add(frozenset(rng.sample(props, length)))
        attempts += 1
    # Iterate queries in sorted order: set order depends on the process
    # hash seed, and it drives both the rng draw sequence (costs) and
    # the instance's query order — a given `seed` must name the same
    # instance in every process.
    ordered = sorted(queries, key=sorted)
    costs: Dict[Classifier, float] = {}
    for q in ordered:
        for clf in iter_nonempty_subsets(q):
            if clf not in costs:
                costs[clf] = rng.randint(*cost_range)
    if missing_fraction > 0:
        for clf in sorted(costs, key=sorted):
            # Singletons stay to preserve coverability.
            if len(clf) > 1 and rng.random() < missing_fraction:
                del costs[clf]
    return MC3Instance(ordered, TableCost(costs), name=f"rand{seed}")


def brute_force_optimum(instance: MC3Instance, max_universe: int = 16) -> float:
    """Exhaustive optimal cost over all classifier subsets (bitmask scan).

    This is the independent oracle the solvers are validated against;
    instances must be tiny (≤ ``max_universe`` relevant classifiers).
    """
    universe = instance.classifier_universe()
    if len(universe) > max_universe:
        raise ValueError(
            f"instance too large for brute force ({len(universe)} classifiers)"
        )
    weights = [instance.weight(clf) for clf in universe]
    # Per-query element masks: which bit positions each classifier covers.
    query_masks: List[Tuple[int, List[int]]] = []
    for q in instance.queries:
        prop_index = {prop: i for i, prop in enumerate(sorted(q))}
        full = (1 << len(prop_index)) - 1
        contributions = []
        for clf in universe:
            mask = 0
            if clf <= q:
                for prop in clf:
                    mask |= 1 << prop_index[prop]
            contributions.append(mask)
        query_masks.append((full, contributions))

    best = math.inf
    for selection in range(1 << len(universe)):
        cost = 0.0
        for index in range(len(universe)):
            if selection & (1 << index):
                cost += weights[index]
                if cost >= best:
                    break
        if cost >= best:
            continue
        feasible = True
        for full, contributions in query_masks:
            covered = 0
            for index in range(len(universe)):
                if selection & (1 << index):
                    covered |= contributions[index]
            if covered != full:
                feasible = False
                break
        if feasible:
            best = cost
    return best


def _covered(q, selected) -> bool:
    remaining = set(q)
    for clf in selected:
        if clf <= q:
            remaining -= clf
    return not remaining
