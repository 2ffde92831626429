"""Edge-case tests for small utility paths across the package."""

import pytest

from repro.core import MC3Instance, TableCost, UniformCost, materialize_cost
from repro.core.costs import HashCost
from repro.exceptions import DatasetError
from repro.experiments.report import _fmt, render_table
from repro.experiments.runner import time_solver
from repro.preprocess.pipeline import _may_have_zero_weights
from repro.solvers import K2Solver, PropertyOrientedSolver


class TestMaterializeCost:
    def test_materialises_lazy_model(self):
        instance = MC3Instance(["a b"], HashCost(1, 5, seed=0))
        concrete = materialize_cost(instance)
        assert isinstance(concrete.cost, TableCost)
        for clf in instance.candidates(frozenset(("a", "b"))):
            assert concrete.weight(clf) == instance.weight(clf)

    def test_entry_limit_enforced(self):
        instance = MC3Instance(["a b c d"], UniformCost(1.0))
        with pytest.raises(DatasetError):
            materialize_cost(instance, max_entries=3)

    def test_preserves_metadata(self):
        instance = MC3Instance(
            ["a b"], UniformCost(1.0), max_classifier_length=1, name="meta"
        )
        concrete = materialize_cost(instance)
        assert concrete.name == "meta"
        assert concrete.max_classifier_length == 1


class TestReportFormatting:
    def test_fmt_nan_and_none(self):
        assert _fmt(float("nan")) == "-"
        assert _fmt(None) == "-"

    def test_fmt_large_and_small_floats(self):
        assert _fmt(1234.0) == "1,234"
        assert _fmt(0.12345) == "0.123"

    def test_fmt_strings_pass_through(self):
        assert _fmt("abc") == "abc"

    def test_render_table_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestRunnerHelpers:
    def test_time_solver(self):
        instance = MC3Instance(["a"], {"a": 1})
        result = time_solver(PropertyOrientedSolver, instance)
        assert result.cost == 1.0
        assert result.elapsed_seconds >= 0


class TestZeroWeightScanHeuristic:
    def test_hash_cost_with_positive_low_skips(self):
        instance = MC3Instance(["a b"], HashCost(1, 5, seed=0))
        assert not _may_have_zero_weights(instance)

    def test_hash_cost_with_zero_low_scans(self):
        instance = MC3Instance(["a b"], HashCost(0, 5, seed=0))
        assert _may_have_zero_weights(instance)

    def test_uniform_positive_skips(self):
        instance = MC3Instance(["a b"], UniformCost(2.0))
        assert not _may_have_zero_weights(instance)

    def test_table_cost_scans(self):
        instance = MC3Instance(["a b"], {"a": 0, "b": 1})
        assert _may_have_zero_weights(instance)


class TestSolverDetails:
    def test_k2_details_fields(self):
        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 3})
        result = K2Solver().solve(instance)
        assert "flow_value" in result.details
        assert "preprocess" in result.details
        assert result.details["components"] >= 0

    def test_verify_flag_disables_checking(self):
        """verify=False trusts the solver (used inside Short-First)."""
        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 3})
        result = K2Solver(verify=False).solve(instance)
        assert result.cost == 2.0


class TestCoverageCheckerEdgeCases:
    def test_empty_classifier_posting(self):
        from repro.core import CoverageChecker

        checker = CoverageChecker([frozenset("ab")])
        assert checker.uncovered_queries([frozenset(("z",))]) == [frozenset("ab")]

    def test_duplicate_queries_tolerated(self):
        from repro.core import CoverageChecker

        checker = CoverageChecker([frozenset("a"), frozenset("a")])
        assert checker.all_covered([frozenset("a")])
