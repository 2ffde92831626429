"""Tests for the ``mc3 plan`` command."""

import json

import pytest

from repro.cli import main as mc3_main


@pytest.fixture
def log_and_costs(tmp_path):
    log = tmp_path / "queries.txt"
    # Duplicates model popularity: "a b" is searched three times.
    log.write_text("a b\na b\na b\nb c\nd\n")
    costs = tmp_path / "costs.csv"
    costs.write_text(
        "classifier,cost\na,4\nb,4\nc,4\nd,1\na+b,5\nb+c,5\n"
    )
    return log, costs


class TestPlanCommand:
    def test_full_coverage_plan(self, log_and_costs, capsys, tmp_path):
        log, costs = log_and_costs
        out = tmp_path / "plan.json"
        code = mc3_main(["plan", str(log), str(costs), "--output", str(out), "--verbose"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "covered       : 3/3 queries" in stdout
        payload = json.loads(out.read_text())
        assert payload["classifiers"]

    def test_budgeted_plan_prefers_good_ratios(self, log_and_costs, capsys):
        log, costs = log_and_costs
        code = mc3_main(["plan", str(log), str(costs), "--budget", "6"])
        assert code == 0
        stdout = capsys.readouterr().out
        # The bundle greedy takes D (ratio 1.0), then AB for the
        # three-times-searched query (ratio 0.6): 4 of 5 searches served.
        assert "spent         : 6" in stdout
        assert "(80.0% of traffic)" in stdout

    def test_plan_with_named_solver(self, log_and_costs, capsys):
        log, costs = log_and_costs
        assert mc3_main(["plan", str(log), str(costs), "--solver", "query-oriented"]) == 0

    def test_missing_cost_file(self, log_and_costs, tmp_path, capsys):
        log, _ = log_and_costs
        code = mc3_main(["plan", str(log), str(tmp_path / "nope.csv")])
        assert code == 1
