"""Tests for the coverage semantics (Section 2.1) — the independent
feasibility oracle."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import (
    CoverageChecker,
    covering_subset,
    is_covered,
    verify_cover,
)
from repro.core.reference import ReferenceCoverageChecker
from repro.exceptions import InfeasibleSolutionError

PROPS = [f"p{i}" for i in range(6)]
QUERY = st.frozensets(st.sampled_from(PROPS), min_size=1, max_size=4)
SELECTION = st.frozensets(
    st.frozensets(st.sampled_from(PROPS), min_size=1, max_size=3), max_size=8
)


def reference_is_covered(q, selected):
    """Literal Section 2.1 definition: ∃ T ⊆ S with P(T) = q, via the
    equivalent union-of-usable-subsets formulation computed naively."""
    usable = [clf for clf in selected if clf <= q]
    union = set()
    for clf in usable:
        union |= clf
    return union == set(q)


class TestIsCovered:
    def test_exact_classifier_covers(self):
        assert is_covered(frozenset("ab"), [frozenset("ab")])

    def test_union_covers(self):
        assert is_covered(frozenset("abc"), [frozenset("ab"), frozenset("c")])

    def test_overlapping_union_covers(self):
        assert is_covered(frozenset("abc"), [frozenset("ab"), frozenset("bc")])

    def test_superset_classifier_does_not_cover(self):
        """A classifier testing extra properties cannot be used: P(T)
        must equal the query exactly."""
        assert not is_covered(frozenset("ab"), [frozenset("abc")])

    def test_partial_union_does_not_cover(self):
        assert not is_covered(frozenset("abc"), [frozenset("ab")])

    def test_empty_selection(self):
        assert not is_covered(frozenset("a"), [])

    @given(QUERY, SELECTION)
    @settings(max_examples=120)
    def test_matches_reference_semantics(self, q, selected):
        assert is_covered(q, selected) == reference_is_covered(q, selected)


class TestCoveringSubset:
    def test_returns_usable_only(self):
        witnesses = covering_subset(
            frozenset("ab"), [frozenset("a"), frozenset("abc")]
        )
        assert witnesses == [frozenset("a")]


class TestSharedChecker:
    def test_preprocessing_and_verification_share_one_index(self, monkeypatch):
        from repro.core import MC3Instance
        from repro.core import instance as instance_module
        from repro.solvers import make_solver

        built = []

        class Counting(CoverageChecker):
            def __init__(self, queries):
                built.append(len(list(queries)))
                super().__init__(queries)

        monkeypatch.setattr(instance_module, "CoverageChecker", Counting)
        load = MC3Instance(
            ["a b", "b c", "c", "d e"], {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}
        )
        result = make_solver("mc3-general", cache="off").solve(load)
        assert built == [4]
        assert load.coverage_checker() is load.coverage_checker()
        result.solution.verify(load)
        assert built == [4]

    def test_verification_stays_complete(self):
        from repro.core import MC3Instance
        from repro.core.solution import Solution

        load = MC3Instance(["a b", "c"], {"a": 1, "b": 1, "c": 1})
        load.coverage_checker()
        with pytest.raises(InfeasibleSolutionError, match="1 query is not covered"):
            Solution([frozenset("ab")], 2.0).verify(load)


class TestCoverageChecker:
    def test_applicable_queries(self):
        checker = CoverageChecker([frozenset("ab"), frozenset("bc"), frozenset("b")])
        assert checker.applicable_queries(frozenset("b")) == [0, 1, 2]
        assert checker.applicable_queries(frozenset("ab")) == [0]
        assert checker.applicable_queries(frozenset("az")) == []

    def test_uncovered_queries(self):
        checker = CoverageChecker([frozenset("ab"), frozenset("c")])
        missing = checker.uncovered_queries([frozenset("ab")])
        assert missing == [frozenset("c")]

    def test_all_covered(self):
        checker = CoverageChecker([frozenset("ab")])
        assert checker.all_covered([frozenset("a"), frozenset("b")])
        assert not checker.all_covered([frozenset("a")])

    @given(st.lists(QUERY, min_size=1, max_size=5, unique=True), SELECTION)
    @settings(max_examples=80)
    def test_checker_agrees_with_is_covered(self, queries, selected):
        checker = CoverageChecker(queries)
        missing = set(checker.uncovered_queries(selected))
        for q in queries:
            assert (q in missing) == (not is_covered(q, selected))


# Classifiers for the walk-vs-reference checks: "x0"/"x1" belong to no
# query, the empty classifier has no posting list at all, and lists
# (not sets) let the same classifier arrive twice.
WALK_CLASSIFIER = st.frozensets(
    st.sampled_from(PROPS + ["x0", "x1"]), min_size=0, max_size=4
)


class TestCoverageWalk:
    """``applicable_queries`` walks the rarest property's posting list
    and ``uncovered_queries`` loops over it; the intersect-and-sort
    original in ``core/reference.py`` is their oracle: same queries,
    same order."""

    @given(
        st.lists(QUERY, max_size=12),
        st.lists(WALK_CLASSIFIER, max_size=12),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300)
    def test_walk_matches_reference(self, queries, selected, rng):
        reference = ReferenceCoverageChecker(queries)
        expected = reference.uncovered_queries(selected)
        checker = CoverageChecker(queries)
        for clf in selected:
            assert checker.applicable_queries(clf) == reference.applicable_queries(clf)
        assert checker.uncovered_queries(selected) == expected
        shuffled = list(selected)
        rng.shuffle(shuffled)
        assert checker.uncovered_queries(shuffled) == expected
        assert checker.uncovered_queries(frozenset(selected)) == expected

    def test_edge_classifiers_match_reference(self):
        queries = [frozenset("ab"), frozenset("bc"), frozenset("b"), frozenset("ab")]
        cases = [
            [frozenset()],  # empty classifier
            [frozenset({"z"})],  # property no query has
            [frozenset({"a", "z"})],  # rare property no query has
            [frozenset("abc")],  # subset of no query
            [frozenset("b"), frozenset("b")],  # duplicate classifier
            [frozenset("ab"), frozenset("ab"), frozenset("c"), frozenset("bc")],
            [],
        ]
        checker = CoverageChecker(queries)
        reference = ReferenceCoverageChecker(queries)
        for selected in cases:
            assert checker.uncovered_queries(selected) == reference.uncovered_queries(
                selected
            ), selected
            for clf in selected:
                assert checker.applicable_queries(
                    clf
                ) == reference.applicable_queries(clf), clf

    def test_order_is_load_order_with_duplicate_queries(self):
        queries = [frozenset("c"), frozenset("ab"), frozenset("c"), frozenset("a")]
        checker = CoverageChecker(queries)
        assert checker.uncovered_queries([frozenset("a")]) == [
            frozenset("c"),
            frozenset("ab"),
            frozenset("c"),
        ]

    def test_oracle_imports_no_solver_code(self):
        """The oracle stays independent of what it checks."""
        import ast

        import repro.core.coverage as coverage

        tree = ast.parse(Path(coverage.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        for name in imported:
            assert not name.startswith(
                ("repro.core.bitspace", "repro.core.kernels", "repro.solvers")
            ), name


class TestVerifyCover:
    def test_passes_on_feasible(self):
        verify_cover([frozenset("ab")], [frozenset("ab")])

    def test_raises_on_missing(self):
        with pytest.raises(InfeasibleSolutionError) as excinfo:
            verify_cover([frozenset("ab"), frozenset("c")], [frozenset("ab")])
        assert "1 query is" in str(excinfo.value)

    def test_error_counts_multiple(self):
        with pytest.raises(InfeasibleSolutionError) as excinfo:
            verify_cover([frozenset("a"), frozenset("b")], [])
        assert "2 queries are" in str(excinfo.value)
