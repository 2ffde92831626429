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
    def test_each_pass_checks_through_the_pipeline_name(self, monkeypatch):
        """Step 1's pass and the step-3/4 residual pass both build their
        checker through ``repro.preprocess.pipeline.CoverageChecker``
        (the name the traced ``preprocess.coverage`` span wraps), and
        verification builds its own over the whole load."""
        from repro.core import MC3Instance
        from repro.core import solution as solution_module
        from repro.preprocess import pipeline
        from repro.solvers import make_solver

        def counting(calls):
            class Counting(CoverageChecker):
                def uncovered_queries(self, selected):
                    missing = super().uncovered_queries(selected)
                    calls.append((len(self.queries), len(missing)))
                    return missing

            return Counting

        preprocessing, verification = [], []
        monkeypatch.setattr(pipeline, "CoverageChecker", counting(preprocessing))
        monkeypatch.setattr(solution_module, "CoverageChecker", counting(verification))
        # Step 1 selects B and C, which cover "b c" too; steps 3-4 force A
        # and D+E, which the residual pass finds cover the rest.
        load = MC3Instance(
            ["a b", "b c", "b", "c", "d e"],
            {"a": 1, "b": 1, "c": 1, "a b": 3, "b c": 3, "d": 2, "e": 2, "d e": 1},
        )
        result = make_solver("mc3-general", cache="off").solve(load)
        assert preprocessing == [(5, 2), (2, 0)]
        result.solution.verify(load)
        assert verification[-1] == (5, 0)

    def test_verification_stays_complete(self):
        from repro.core import MC3Instance
        from repro.core.solution import Solution

        load = MC3Instance(["a b", "c"], {"a": 1, "b": 1, "c": 1})
        with pytest.raises(InfeasibleSolutionError, match="1 query is not covered"):
            Solution([frozenset("ab")], 2.0).verify(load)


class TestCoverageChecker:
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


# Up to 12 properties a query; "x0"/"x1" belong to no query.
WIDE_PROPS = [f"p{i}" for i in range(14)]
LONG_QUERY = st.frozensets(st.sampled_from(WIDE_PROPS), min_size=1, max_size=12)
STRAY_CLASSIFIER = st.frozensets(
    st.sampled_from(WIDE_PROPS + ["x0", "x1"]), min_size=0, max_size=4
)


@st.composite
def loads_and_selections(draw):
    """A load (duplicates allowed) and a selection (a list, so the same
    classifier may arrive twice) mixing pieces of its queries with
    classifiers that may lie inside no query."""
    queries = draw(st.lists(LONG_QUERY, max_size=10))
    pieces = [
        draw(st.frozensets(st.sampled_from(sorted(q)), min_size=1)) for q in queries
    ]
    selected = draw(
        st.lists(st.sampled_from(pieces) | STRAY_CLASSIFIER, max_size=16)
        if pieces
        else st.lists(STRAY_CLASSIFIER, max_size=16)
    )
    return queries, selected


class TestCoverageWalk:
    """``uncovered_queries`` tests each query against an index of the
    selection; the per-classifier intersect-and-sort original in
    ``core/reference.py`` and :func:`is_covered` are its oracles: same
    queries, in load order."""

    @given(loads_and_selections(), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_walk_matches_reference(self, load, rng):
        queries, selected = load
        expected = ReferenceCoverageChecker(queries).uncovered_queries(selected)
        assert expected == [q for q in queries if not is_covered(q, selected)]
        checker = CoverageChecker(queries)
        assert checker.uncovered_queries(selected) == expected
        shuffled = list(selected)
        rng.shuffle(shuffled)
        assert checker.uncovered_queries(shuffled) == expected
        assert checker.uncovered_queries(frozenset(selected)) == expected
        # A generator can be iterated once only.
        assert checker.uncovered_queries(clf for clf in selected) == expected

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

    def test_long_query_without_subset_enumeration(self):
        """A 64-property query: its 2^64 subsets could never be walked."""
        props = [f"p{i:02d}" for i in range(64)]
        q = frozenset(props)
        pairs = [frozenset(props[i : i + 2]) for i in range(0, 64, 2)]
        checker = CoverageChecker([q])
        assert checker.uncovered_queries(pairs) == []
        # Dropping one pair leaves two properties that only a classifier
        # spilling outside the query would hold.
        spill = frozenset({props[0], props[1], "x"})
        assert checker.uncovered_queries(pairs[1:] + [spill]) == [q]
        singles = [frozenset({p}) for p in props]
        assert checker.uncovered_queries(singles) == []
        assert checker.uncovered_queries(singles[:-1] + pairs[:-1]) == [q]

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
