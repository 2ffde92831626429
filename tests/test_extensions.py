"""Tests for the Section 5.3 extensions: bounded classifiers (parameter
analysis) and multi-valued classifiers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, UniformCost
from repro.extensions import (
    AttributeSchema,
    approximation_guarantee,
    degree_bound,
    extended_wsc,
    frequency_bound,
    instance_guarantee,
    merge_attributes,
    solve_with_multivalued,
)
from repro.reductions import mc3_to_wsc
from repro.solvers import ExactSolver
from tests.conftest import random_instance


class TestFrequencyBound:
    def test_unbounded_is_power_of_two(self):
        assert frequency_bound(5) == 16

    def test_kprime_two_equals_k(self):
        """Section 5.3: for k' = 2 the frequency bound is k."""
        for k in range(2, 8):
            assert frequency_bound(k, 2) == k

    def test_kprime_equal_k_matches_unbounded(self):
        assert frequency_bound(4, 4) == frequency_bound(4)

    def test_monotone_in_kprime(self):
        values = [frequency_bound(6, kp) for kp in range(1, 7)]
        assert values == sorted(values)

    def test_invalid(self):
        with pytest.raises(ValueError):
            frequency_bound(0)
        with pytest.raises(ValueError):
            frequency_bound(3, 0)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_actual_frequency_within_bound(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=4)
        wsc = mc3_to_wsc(instance)
        assert wsc.frequency() <= frequency_bound(instance.max_query_length)


class TestDegreeAndGuarantee:
    def test_degree_bound(self):
        assert degree_bound(4, incidence=5) == 15
        assert degree_bound(4, incidence=5, k_prime=2) == 5

    def test_degree_invalid(self):
        with pytest.raises(ValueError):
            degree_bound(3, -1)

    def test_guarantee_small_k_uses_frequency(self):
        # k = 2: f = 2, which beats any ln-based bound for large I.
        assert approximation_guarantee(2, incidence=10_000) == 2.0

    def test_guarantee_large_incidence_uses_log(self):
        value = approximation_guarantee(10, incidence=100)
        assert value < 2 ** 9
        assert value == pytest.approx(math.log(100) + math.log(9) + 1)

    def test_instance_guarantee(self, example11):
        assert instance_guarantee(example11) >= 1.0


SCHEMA = AttributeSchema(
    {"juventus": "team", "chelsea": "team", "white": "color", "adidas": "brand"}
)


class TestAttributeSchema:
    def test_attribute_lookup(self):
        assert SCHEMA.attribute("juventus") == "team"

    def test_unmapped_property_is_own_attribute(self):
        assert SCHEMA.attribute("mystery") == "mystery"

    def test_values_of(self):
        props = ["juventus", "chelsea", "white"]
        assert SCHEMA.values_of("team", props) == ["chelsea", "juventus"]

    def test_merge_query(self):
        merged = SCHEMA.merge_query(frozenset(["juventus", "white", "adidas"]))
        assert merged == frozenset(["team", "color", "brand"])


class TestMergeAttributes:
    def test_produces_attribute_instance(self, example11):
        merged = merge_attributes(
            example11, SCHEMA, {"team": 5, "color": 2, "brand": 4, "brand team": 6}
        )
        assert frozenset(["team", "brand"]) in merged.queries
        assert merged.weight(frozenset(["team"])) == 5

    def test_merged_queries_deduplicate(self):
        instance = MC3Instance(["juventus adidas", "chelsea adidas"], UniformCost(1))
        merged = merge_attributes(instance, SCHEMA, {"team": 1, "brand": 1})
        assert merged.n == 1  # both queries become {team, brand}


class TestExtendedWSC:
    def test_multivalued_set_covers_all_values(self, example11):
        wsc = extended_wsc(example11, SCHEMA, {"team": 4})
        label = ("multivalued", "team")
        set_id = next(
            sid for sid in range(wsc.num_sets) if wsc.set_label(sid) == label
        )
        members = {wsc.element_label(e) for e in wsc.set_members(set_id)}
        # team values appear in both queries: juventus in q0, chelsea in q1
        assert any(prop == "juventus" for prop, _q in members)
        assert any(prop == "chelsea" for prop, _q in members)

    def test_infinite_cost_skipped(self, example11):
        wsc_with = extended_wsc(example11, SCHEMA, {"team": 4})
        wsc_without = extended_wsc(example11, SCHEMA, {"team": math.inf})
        assert wsc_with.num_sets == wsc_without.num_sets + 1


class TestSolveWithMultivalued:
    def test_cheap_multivalued_selected(self, example11):
        selection = solve_with_multivalued(
            example11, SCHEMA, {"team": 2, "brand": 3, "color": 3}
        )
        assert "team" in selection.multivalued_attributes
        assert selection.cost < ExactSolver().solve(example11).cost

    def test_expensive_multivalued_ignored(self, example11):
        selection = solve_with_multivalued(
            example11, SCHEMA, {"team": 60, "brand": 60, "color": 60}
        )
        assert selection.multivalued_attributes == []
        # Falls back to the pure-binary optimum (7, Example 1.1).
        assert selection.cost == pytest.approx(7.0)

    def test_solution_covers_all_queries(self, example11):
        """Binary picks + multivalued attributes jointly cover the load."""
        selection = solve_with_multivalued(
            example11, SCHEMA, {"team": 2, "brand": 3, "color": 3}
        )
        for q in example11.queries:
            remaining = set(q)
            for clf in selection.binary_classifiers:
                if clf <= q:
                    remaining -= clf
            for attribute in selection.multivalued_attributes:
                remaining -= {
                    p for p in q if SCHEMA.attribute(p) == attribute
                }
            assert not remaining
