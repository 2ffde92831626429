"""Tests for the optimality-certificate analysis."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MC3Instance, Solution, SolverResult, make_solver, optimality_report
from repro.core import load_instance, save_instance
from repro.datasets import synthetic
from repro.exceptions import InfeasibleSolutionError
from tests.conftest import random_instance


class TestOptimalityReport:
    def test_exact_solution_certified(self, example11):
        result = make_solver("exact").solve(example11)
        report = optimality_report(example11, result)
        assert report.gap <= 1.0 + 1e-6
        assert report.certified_optimal
        assert "certified optimal" in report.describe()

    def test_bad_baseline_has_larger_gap(self, example11):
        po = make_solver("property-oriented").solve(example11)
        report = optimality_report(example11, po)
        assert report.gap > 1.5  # 16 vs optimum 7
        assert report.bounded == report.components

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=15, deadline=None)
    def test_bound_below_true_optimum(self, seed):
        instance = random_instance(seed, num_properties=6, num_queries=5, max_length=3)
        exact = make_solver("exact").solve(instance)
        report = optimality_report(instance, make_solver("mc3-general").solve(instance))
        assert report.lower_bound <= exact.cost + 1e-6
        assert report.gap >= 1.0 - 1e-9
        assert report.guarantee >= 1.0

    def test_infeasible_solution_rejected(self, example11):
        with pytest.raises(InfeasibleSolutionError):
            optimality_report(example11, SolverResult(Solution([], 0.0), "empty"))

    def test_lp_budget_skips_components(self):
        # With no LP budget every component is bounded by primal–dual's
        # dual sum instead, so the certificate still covers them all.
        instance = synthetic(120, seed=1)
        result = make_solver("mc3-general", lp_size_limit=0).solve(instance)
        report = optimality_report(instance, result)
        assert report.components >= 1
        assert report.bounded == report.components
        assert report.lower_bound <= result.cost

    def test_report_reads_the_engine_bound(self, monkeypatch):
        import repro.analysis

        instance = synthetic(120, seed=1)
        result = make_solver("mc3-general").solve(instance)

        def no_solve(*args, **kwargs):
            raise AssertionError("a fully bounded result needs no second solve")

        monkeypatch.setattr(repro.analysis, "make_solver", no_solve)
        report = optimality_report(instance, result)
        summary = result.details["engine"]["lower_bound"]
        assert report.lower_bound.hex() == float(summary["value"]).hex()
        assert report.bounded == report.components == summary["components"]

    def test_unbounded_result_borrows_the_general_bound(self, example11):
        qo = make_solver("query-oriented").solve(example11)
        general = make_solver("mc3-general").solve(example11)
        report = optimality_report(example11, qo)
        assert report.solution_cost == qo.cost
        assert report.lower_bound == general.details["engine"]["lower_bound"]["value"]
        assert math.isfinite(report.gap)

    def test_cli_report_gap(self, tmp_path, capsys):
        from repro.cli import main

        instance = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 3})
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        assert main(["solve", str(path), "--report-gap"]) == 0
        out = capsys.readouterr().out
        assert "gap" in out and "proven bound" in out

    def test_cli_report_gap_sampled(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "instance.json"
        generate = ["generate", "bestbuy", "--n", "200", "--seed", "1"]
        assert main(generate + ["--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path), "--solver", "mc3-sampled", "--report-gap"]) == 0
        out = capsys.readouterr().out
        result = make_solver("mc3-sampled").solve(load_instance(path))
        components = result.details["engine"]["lower_bound"]["components"]
        assert components >= 1
        assert f"({components}/{components} bounded components)" in out
