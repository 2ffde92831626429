"""Unit and property-based tests for repro.core.properties."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.properties import (
    canonical_label,
    classifier,
    count_nonempty_subsets,
    iter_nonempty_subsets,
    iter_two_covers,
    iter_two_partitions,
    property_set,
    queries,
    query,
    union_of,
    validate_property,
)
from repro.exceptions import InvalidInstanceError

PROPS = st.frozensets(
    st.sampled_from([f"p{i}" for i in range(7)]), min_size=1, max_size=6
)


class TestValidation:
    def test_valid_property_passes_through(self):
        assert validate_property("adidas") == "adidas"

    def test_non_string_property_rejected(self):
        with pytest.raises(InvalidInstanceError):
            validate_property(42)

    def test_empty_property_rejected(self):
        with pytest.raises(InvalidInstanceError):
            validate_property("")

    def test_untrimmed_property_rejected(self):
        with pytest.raises(InvalidInstanceError):
            validate_property(" adidas")

    def test_property_set_validates_members(self):
        with pytest.raises(InvalidInstanceError):
            property_set(["ok", ""])


class TestQueryConstruction:
    def test_query_from_string_splits_whitespace(self):
        assert query("white  adidas juventus") == frozenset(
            {"white", "adidas", "juventus"}
        )

    def test_query_from_iterable(self):
        assert query(["a", "b"]) == frozenset({"a", "b"})

    def test_query_deduplicates(self):
        assert query("a a b") == frozenset({"a", "b"})

    def test_empty_query_rejected(self):
        with pytest.raises(InvalidInstanceError):
            query("")

    def test_empty_iterable_rejected(self):
        with pytest.raises(InvalidInstanceError):
            query([])

    def test_classifier_same_rules(self):
        assert classifier("x y") == frozenset({"x", "y"})

    def test_queries_plural(self):
        assert queries(["a", "b c"]) == [frozenset({"a"}), frozenset({"b", "c"})]


class TestCanonicalLabel:
    def test_sorted_plus_joined(self):
        assert canonical_label(frozenset({"b", "a"})) == "a+b"

    def test_singleton(self):
        assert canonical_label(frozenset({"x"})) == "x"


class TestSubsetEnumeration:
    def test_enumerates_full_powerset_minus_empty(self):
        subsets = list(iter_nonempty_subsets(frozenset("abc")))
        assert len(subsets) == 7
        assert frozenset("abc") in subsets
        assert frozenset() not in subsets

    def test_respects_max_length(self):
        subsets = list(iter_nonempty_subsets(frozenset("abcd"), max_length=2))
        assert all(len(s) <= 2 for s in subsets)
        assert len(subsets) == 4 + 6

    def test_order_by_increasing_length(self):
        lengths = [len(s) for s in iter_nonempty_subsets(frozenset("abc"))]
        assert lengths == sorted(lengths)

    def test_deterministic_order(self):
        a = list(iter_nonempty_subsets(frozenset("xyz")))
        b = list(iter_nonempty_subsets(frozenset("xyz")))
        assert a == b

    @given(PROPS)
    def test_count_matches_enumeration(self, props):
        assert count_nonempty_subsets(len(props)) == len(
            list(iter_nonempty_subsets(props))
        )

    @given(PROPS, st.integers(min_value=1, max_value=6))
    def test_count_with_cap_matches_enumeration(self, props, cap):
        assert count_nonempty_subsets(len(props), cap) == len(
            list(iter_nonempty_subsets(props, cap))
        )

    def test_count_rejects_negative(self):
        with pytest.raises(ValueError):
            count_nonempty_subsets(-1)


def brute_force_two_covers(props):
    """All unordered pairs (a, b) of non-empty proper subsets with
    a | b == props, as a set of frozensets-of-two (or singleton for
    a == b, impossible here)."""
    subsets = [
        frozenset(c)
        for size in range(1, len(props))
        for c in combinations(sorted(props), size)
    ]
    found = set()
    for i, a in enumerate(subsets):
        for b in subsets[i:]:
            if a | b == props and a != b:
                found.add(frozenset((a, b)))
            elif a | b == props and a == b:
                found.add(frozenset((a,)))
    return found


class TestTwoPartitions:
    def test_pair_has_single_partition(self):
        assert list(iter_two_partitions(frozenset("ab"))) == [
            (frozenset("a"), frozenset("b"))
        ]

    def test_singleton_has_none(self):
        assert list(iter_two_partitions(frozenset("a"))) == []

    @given(PROPS.filter(lambda p: len(p) >= 2))
    @settings(max_examples=40)
    def test_partitions_are_disjoint_and_cover(self, props):
        for a, b in iter_two_partitions(props):
            assert a and b
            assert not (a & b)
            assert a | b == props

    @given(PROPS.filter(lambda p: 2 <= len(p) <= 5))
    @settings(max_examples=40)
    def test_partition_count(self, props):
        count = sum(1 for _ in iter_two_partitions(props))
        assert count == 2 ** (len(props) - 1) - 1

    @given(PROPS.filter(lambda p: 2 <= len(p) <= 5))
    @settings(max_examples=40)
    def test_partitions_unique(self, props):
        seen = set()
        for a, b in iter_two_partitions(props):
            key = frozenset((a, b))
            assert key not in seen
            seen.add(key)


class TestTwoCovers:
    def test_singleton_has_none(self):
        assert list(iter_two_covers(frozenset("a"))) == []

    def test_pair_has_single_cover(self):
        covers = list(iter_two_covers(frozenset("ab")))
        assert covers == [(frozenset("a"), frozenset("b"))]

    @given(PROPS.filter(lambda p: 2 <= len(p) <= 5))
    @settings(max_examples=40)
    def test_matches_brute_force(self, props):
        expected = brute_force_two_covers(props)
        actual = {frozenset((a, b)) for a, b in iter_two_covers(props)}
        assert actual == expected

    @given(PROPS.filter(lambda p: 2 <= len(p) <= 5))
    @settings(max_examples=40)
    def test_each_pair_once(self, props):
        seen = set()
        for a, b in iter_two_covers(props):
            key = frozenset((a, b))
            assert key not in seen, f"duplicate {key}"
            seen.add(key)

    @given(PROPS.filter(lambda p: 2 <= len(p) <= 5))
    @settings(max_examples=40)
    def test_all_proper_and_covering(self, props):
        for a, b in iter_two_covers(props):
            assert a and b
            assert a != props and b != props
            assert a | b == props


class TestUnionOf:
    def test_union(self):
        assert union_of([frozenset("ab"), frozenset("bc")]) == frozenset("abc")

    def test_empty(self):
        assert union_of([]) == frozenset()
