"""The checked-in sample data must stay loadable and consistent."""

from pathlib import Path

from repro.core import load_instance, load_solution
from repro.datasets import instance_from_files
from repro.solvers import make_solver

DATA = Path(__file__).resolve().parent.parent / "data"


class TestSampleData:
    def test_instance_loads(self):
        instance = load_instance(DATA / "bestbuy_small.json")
        assert instance.n == 120
        assert instance.max_query_length <= 4

    def test_solution_matches_instance(self):
        instance = load_instance(DATA / "bestbuy_small.json")
        short = instance.restricted_to(lambda q: len(q) <= 2)
        solution = load_solution(DATA / "bestbuy_small_solution.json")
        solution.verify(short)

    def test_solution_still_optimal(self):
        """Regenerating the dataset must not silently change the data's
        optimum (seed-pinned determinism end to end)."""
        instance = load_instance(DATA / "bestbuy_small.json")
        short = instance.restricted_to(lambda q: len(q) <= 2)
        solution = load_solution(DATA / "bestbuy_small_solution.json")
        assert make_solver("mc3-k2").solve(short).cost == solution.cost

    def test_log_and_costs_assemble(self):
        instance = instance_from_files(
            DATA / "private_small_queries.txt",
            DATA / "private_small_costs.csv",
        )
        assert instance.n == 60
        result = make_solver("mc3-general").solve(instance)
        result.solution.verify(instance)
