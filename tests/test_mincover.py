"""Tests for the single-query minimum-cover DP."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance
from repro.core.mincover import enumerate_covers, min_cover, min_cover_from_model
from repro.core.properties import iter_nonempty_subsets
from repro.exceptions import UncoverableQueryError


def brute_force_min_cover(q, candidates):
    """Optimal single-query cover by exhaustive subset enumeration."""
    usable = [(clf, w) for clf, w in candidates if clf <= q and math.isfinite(w)]
    best = math.inf
    for size in range(len(usable) + 1):
        for combo in itertools.combinations(usable, size):
            union = set()
            for clf, _w in combo:
                union |= clf
            if union == set(q):
                best = min(best, sum(w for _c, w in combo))
    return best


class TestMinCover:
    def test_single_classifier(self):
        cover = min_cover(frozenset("ab"), [(frozenset("ab"), 3.0)])
        assert cover.cost == 3.0
        assert cover.classifiers == (frozenset("ab"),)

    def test_prefers_cheaper_combination(self):
        cover = min_cover(
            frozenset("ab"),
            [(frozenset("ab"), 5.0), (frozenset("a"), 1.0), (frozenset("b"), 1.0)],
        )
        assert cover.cost == 2.0
        assert set(cover.classifiers) == {frozenset("a"), frozenset("b")}

    def test_ignores_non_subset_candidates(self):
        cover = min_cover(
            frozenset("ab"),
            [(frozenset("abc"), 0.5), (frozenset("ab"), 3.0)],
        )
        assert cover.cost == 3.0

    def test_ignores_infinite_candidates(self):
        cover = min_cover(
            frozenset("a"),
            [(frozenset("a"), math.inf), (frozenset("a"), 2.0)],
        )
        assert cover.cost == 2.0

    def test_uncoverable_raises(self):
        with pytest.raises(UncoverableQueryError):
            min_cover(frozenset("ab"), [(frozenset("a"), 1.0)])

    def test_uncoverable_optional(self):
        assert min_cover(frozenset("ab"), [], required=False) is None

    def test_zero_cost_candidates(self):
        cover = min_cover(
            frozenset("ab"), [(frozenset("a"), 0.0), (frozenset("b"), 0.0)]
        )
        assert cover.cost == 0.0

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        props = rng.sample("abcdef", rng.randint(1, 4))
        q = frozenset(props)
        candidates = []
        for clf in iter_nonempty_subsets(q):
            if rng.random() < 0.8:
                candidates.append((clf, float(rng.randint(0, 10))))
        expected = brute_force_min_cover(q, candidates)
        cover = min_cover(q, candidates, required=False)
        if math.isinf(expected):
            assert cover is None
        else:
            assert cover is not None
            assert cover.cost == pytest.approx(expected)
            # The witness itself must be feasible and priced correctly.
            union = set()
            total = 0.0
            weight_of = {}
            for clf, w in candidates:
                weight_of[clf] = min(w, weight_of.get(clf, math.inf))
            for clf in cover.classifiers:
                union |= clf
                total += weight_of[clf]
            assert union == set(q)
            assert total == pytest.approx(cover.cost)

    def test_from_model(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 3})
        cover = min_cover_from_model(frozenset("ab"), instance)
        assert cover.cost == 2.0


class TestEnumerateCovers:
    def candidates(self, table):
        return [(frozenset(k.split()), v) for k, v in table.items()]

    def test_all_irredundant_covers(self):
        covers = enumerate_covers(
            frozenset("ab"),
            self.candidates({"a": 1, "b": 1, "a b": 3}),
        )
        found = {frozenset(c.classifiers) for c in covers}
        assert found == {
            frozenset({frozenset("a"), frozenset("b")}),
            frozenset({frozenset("ab")}),
        }

    def test_redundant_covers_excluded(self):
        covers = enumerate_covers(
            frozenset("ab"), self.candidates({"a": 1, "b": 1})
        )
        assert len(covers) == 1

    def test_unique_cover(self):
        covers = enumerate_covers(frozenset("ab"), self.candidates({"a b": 2}))
        assert len(covers) == 1
        assert covers[0].cost == 2.0

    def test_limit_short_circuits(self):
        covers = enumerate_covers(
            frozenset("abc"),
            self.candidates({"a": 1, "b": 1, "c": 1, "a b": 1, "b c": 1, "a c": 1}),
            limit=2,
        )
        assert len(covers) == 2

    def test_node_budget_returns_conservative_duplicate(self):
        covers = enumerate_covers(
            frozenset("abcde"),
            self.candidates(
                {" ".join(sorted(c)): 1 for c in itertools.chain.from_iterable(
                    itertools.combinations("abcde", size) for size in (1, 2, 3)
                )}
            ),
            node_budget=5,
        )
        # Either nothing was found in budget, or the sentinel duplicate
        # prevents a false "unique cover" conclusion.
        assert len(covers) != 1

    def test_no_cover_returns_empty(self):
        assert enumerate_covers(frozenset("ab"), self.candidates({"a": 1})) == []
