"""Determinism guarantees: identical inputs give identical outputs,
byte for byte, across repeated runs in one process.

(Cross-process determinism additionally relies on never hashing with
PYTHONHASHSEED-sensitive orders; the generators are seeded with strings
and all reducers iterate deterministic structures — these tests catch
in-process regressions, the sample-data tests catch cross-process ones.)
"""

import os
import subprocess
import sys

import pytest

from repro.datasets import bestbuy_like, private_like, synthetic
from repro.extensions import greedy_partial_cover
from repro.preprocess import preprocess
from repro.solvers import make_solver
from tests.conftest import random_instance

SOLVERS = [
    "mc3-k2",
    "mc3-general",
    "mc3-sampled",
    "mc3-streaming",
    "short-first",
    "local-greedy",
    "exact",
    "mc3-refined",
]


class TestSolverDeterminism:
    @pytest.mark.parametrize("name", SOLVERS)
    def test_same_solution_twice(self, name):
        instance = random_instance(77, num_properties=7, num_queries=6, max_length=2)
        first = make_solver(name).solve(instance)
        second = make_solver(name).solve(instance)
        assert first.solution.classifiers == second.solution.classifiers
        assert first.cost == second.cost

    def test_general_deterministic_on_generated_data(self):
        instance = private_like(300, seed=5)
        a = make_solver("mc3-general").solve(instance)
        b = make_solver("mc3-general").solve(instance)
        assert a.solution.classifiers == b.solution.classifiers

    def test_sampled_bit_identical_across_jobs(self):
        """The sampled solver's randomness is a pure function of (seed,
        component content), so process-pool dispatch must not change a
        single classifier relative to the sequential run."""
        instance = synthetic(300, seed=5)
        sequential = make_solver("mc3-sampled", seed=11, jobs=1).solve(instance)
        pooled = make_solver("mc3-sampled", seed=11, jobs=4).solve(instance)
        assert sequential.solution.classifiers == pooled.solution.classifiers
        assert sequential.cost == pooled.cost


class TestCertificateDeterminism:
    """Which components the greedy certificate proves optimal (and so
    which skip the LP arm) is a pure function of the component: a node
    cap, never a clock, bounds the search."""

    @staticmethod
    def signature(result):
        return (
            result.cost.hex(),
            result.details["wins"],
            result.details["f_approximation_modes"],
            result.details["engine"]["lower_bound"],
        )

    def test_identical_across_jobs(self):
        instance = private_like(300, seed=5)
        sequential = make_solver("mc3-general", jobs=1, cache="off").solve(instance)
        pooled = make_solver("mc3-general", jobs=2, cache="off").solve(instance)
        assert sequential.details["engine"]["lower_bound"]["certified"] > 0
        assert self.signature(sequential) == self.signature(pooled)
        assert sequential.solution.classifiers == pooled.solution.classifiers

    def test_identical_across_hash_seeds(self):
        script = (
            "from repro.datasets import private_like\n"
            "from repro.solvers import make_solver\n"
            "r = make_solver('mc3-general', cache='off').solve(private_like(300, seed=5))\n"
            "print(repr((r.cost.hex(), r.details['wins'],"
            " r.details['engine']['lower_bound'])))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        outputs = []
        for hash_seed in ("0", "1", "424242"):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1] == outputs[2]
        assert "'certified': 0" not in outputs[0]


class TestPreprocessDeterminism:
    def test_same_forced_and_components(self):
        instance = random_instance(31, num_properties=7, num_queries=6, max_length=3)
        a = preprocess(instance)
        b = preprocess(instance)
        assert a.forced == b.forced
        assert [c.queries for c in a.components] == [c.queries for c in b.components]


class TestGeneratorDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: bestbuy_like(150, seed=9),
            lambda: private_like(150, seed=9),
            lambda: synthetic(150, seed=9),
        ],
        ids=["bestbuy", "private", "synthetic"],
    )
    def test_identical_across_calls(self, factory):
        a, b = factory(), factory()
        assert list(a.queries) == list(b.queries)
        q = a.queries[0]
        for clf in a.candidates(q):
            assert a.weight(clf) == b.weight(clf)


class TestExtensionDeterminism:
    def test_partial_cover_deterministic(self):
        instance = private_like(120, seed=2)
        weights = {q: float(len(q)) for q in instance.queries}
        a = greedy_partial_cover(instance, weights, budget=500)
        b = greedy_partial_cover(instance, weights, budget=500)
        assert a.classifiers == b.classifiers
        assert a.covered_weight == b.covered_weight


class TestGreedyTieBreaking:
    """Pins the greedy WSC tie-break: equal cost/fresh ratios resolve by
    lowest set id.  The bitmask rewrite must preserve this — the heap
    entries are (ratio, set_id, ...) tuples, so the pin catches any
    reordering of the tuple fields or a switch to an id-free queue."""

    def test_equal_ratios_resolve_by_lowest_set_id(self):
        from repro.setcover import greedy_wsc
        from tests.test_setcover import build

        # Sets 0, 1, 2 all start at ratio 1.0.  Taking them in id order
        # covers everything with sets 0 and 1; any other tie order needs
        # a third set.
        instance = build(
            [
                (["a", "b"], 2),
                (["c", "d"], 2),
                (["b", "c"], 2),
            ]
        )
        solution = greedy_wsc(instance)
        instance.verify_solution(solution)
        assert solution.set_ids == (0, 1)
        assert solution.cost == 4.0

    def test_tie_break_is_id_not_insertion_payload(self):
        from repro.setcover import greedy_wsc
        from tests.test_setcover import build

        # Same family, registered so the tying pair straddles a cheaper
        # singleton: ids still decide (1 before 3), labels don't matter.
        instance = build(
            [
                (["a", "b"], 2),   # 0: ratio 1.0 — tied
                (["e"], 1),        # 1: ratio 1.0 — tied, wins over 2 and 3
                (["c", "d"], 2),   # 2: ratio 1.0 — tied
                (["b", "c"], 2),   # 3: ratio 1.0 — tied
            ]
        )
        solution = greedy_wsc(instance)
        instance.verify_solution(solution)
        assert solution.set_ids == (0, 1, 2)
        assert solution.cost == 5.0
