"""Tests for Solution/SolverResult and JSON/CSV (de)serialisation."""

import math

import pytest

from repro.core import (
    MC3Instance,
    Solution,
    SolverResult,
    TableCost,
    UniformCost,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    solution_from_dict,
    solution_to_dict,
)
from repro.datasets import (
    instance_from_files,
    load_cost_table_csv,
    load_query_log,
    save_cost_table_csv,
    save_query_log,
)
from repro.exceptions import DatasetError, InfeasibleSolutionError


@pytest.fixture
def instance():
    return MC3Instance(["a b", "c"], {"a": 1, "b": 2, "a b": 2.5, "c": 1}, name="t")


class TestSolution:
    def test_from_instance_prices(self, instance):
        solution = Solution.from_instance([frozenset("ab"), frozenset("c")], instance)
        assert solution.cost == 3.5

    def test_verify_passes(self, instance):
        Solution.from_instance([frozenset("ab"), frozenset("c")], instance).verify(
            instance
        )

    def test_verify_rejects_uncovered(self, instance):
        solution = Solution.from_instance([frozenset("ab")], instance)
        with pytest.raises(InfeasibleSolutionError):
            solution.verify(instance)

    def test_verify_rejects_wrong_cost(self, instance):
        solution = Solution([frozenset("ab"), frozenset("c")], 99.0)
        with pytest.raises(InfeasibleSolutionError):
            solution.verify(instance)

    def test_rejects_negative_cost(self):
        with pytest.raises(InfeasibleSolutionError):
            Solution([frozenset("a")], -1.0)

    def test_union_disjoint(self):
        a = Solution([frozenset("a")], 1.0)
        b = Solution([frozenset("b")], 2.0)
        combined = a.union(b)
        assert combined.cost == 3.0
        assert len(combined) == 2

    def test_union_overlapping_rejected(self):
        a = Solution([frozenset("a")], 1.0)
        with pytest.raises(InfeasibleSolutionError):
            a.union(a)

    def test_equality_and_hash(self):
        a = Solution([frozenset("a")], 1.0)
        b = Solution([frozenset("a")], 1.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_sorted_labels(self):
        solution = Solution([frozenset("b"), frozenset(("a", "c"))], 0.0)
        assert solution.sorted_labels() == ["a+c", "b"]


class TestSolverResult:
    def test_cost_passthrough(self):
        result = SolverResult(Solution([frozenset("a")], 1.5), "x", 0.1)
        assert result.cost == 1.5
        assert result.details == {}


class TestInstanceJson:
    def test_round_trip(self, instance, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert set(loaded.queries) == set(instance.queries)
        assert loaded.weight(frozenset("ab")) == 2.5
        assert loaded.name == "t"

    def test_dict_round_trip_default_cost(self):
        instance = MC3Instance(["a"], TableCost({"a": 1}, default=7.0))
        payload = instance_to_dict(instance)
        assert payload["default_cost"] == 7.0
        loaded = instance_from_dict(payload)
        assert loaded.weight(frozenset("z")) == 7.0

    def test_lazy_cost_model_rejected(self):
        instance = MC3Instance(["a"], UniformCost(1.0))
        with pytest.raises(DatasetError):
            instance_to_dict(instance)

    def test_malformed_payload(self):
        with pytest.raises(DatasetError):
            instance_from_dict({"costs": {}})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(DatasetError):
            load_instance(path)


class TestSolutionJson:
    def test_round_trip(self, tmp_path):
        solution = Solution([frozenset(("a", "b")), frozenset("c")], 3.5)
        path = tmp_path / "solution.json"
        save_solution(solution, path)
        loaded = load_solution(path)
        assert loaded == solution
        assert loaded.cost == 3.5

    def test_dict_shape(self):
        payload = solution_to_dict(Solution([frozenset(("b", "a"))], 1.0))
        assert payload == {"cost": 1.0, "classifiers": ["a+b"]}

    def test_malformed(self):
        with pytest.raises(DatasetError):
            solution_from_dict({"classifiers": ["a"]})


class TestQueryLogFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.txt"
        queries = [frozenset(("b", "a")), frozenset("c")]
        save_query_log(queries, path)
        assert load_query_log(path) == queries

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("# comment\n\na b\n")
        assert load_query_log(path) == [frozenset(("a", "b"))]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DatasetError):
            load_query_log(path)


class TestCostCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "costs.csv"
        table = TableCost({"a": 1.0, "a+b": 2.0})
        save_cost_table_csv(table, path)
        loaded = load_cost_table_csv(path)
        assert loaded.cost(frozenset(("a", "b"))) == 2.0
        assert loaded.cost(frozenset("z")) == math.inf

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("classifier,cost\na,1\nb,not-a-number\n")
        with pytest.raises(DatasetError):
            load_cost_table_csv(path)

    def test_instance_from_files(self, tmp_path):
        log = tmp_path / "log.txt"
        log.write_text("a b\n")
        csv_path = tmp_path / "costs.csv"
        csv_path.write_text("classifier,cost\na,1\nb,1\n")
        instance = instance_from_files(log, csv_path)
        assert instance.n == 1
        assert instance.weight(frozenset("a")) == 1.0
