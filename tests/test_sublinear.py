"""Tests for the sampled sub-linear set cover backend, the scale-tier
lazy workloads, and their solver/engine integration."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import synthetic
from repro.datasets.scale import (
    SCALE_TIERS,
    LazyQueryLoad,
    ScaleTierWorkload,
    scale_tier_queries,
    scale_tier_workload,
)
from repro.datasets.synthetic import SyntheticQueryStream
from repro.engine.resilience import FALLBACK_RUNGS, ResiliencePolicy, resolve_rung
from repro.exceptions import DatasetError
from repro.setcover import (
    WSCInstance,
    derive_seed,
    exact_wsc,
    greedy_wsc,
    sampled_greedy_wsc,
    solve_wsc,
)
from repro.solvers import available_solvers, make_solver


def build(sets_with_costs):
    """[(members, cost), ...] -> WSCInstance (same helper as test_setcover)."""
    instance = WSCInstance()
    for index, (members, cost) in enumerate(sets_with_costs):
        instance.add_set(f"s{index}", members, cost)
    return instance


def pin_instance():
    """600 elements, 600 expensive singletons + 80 cheap 25-element sets;
    fully deterministic, used for the pinned-seed regressions."""
    rng = random.Random("sublinear-pin")
    instance = WSCInstance()
    for e in range(600):
        instance.add_element(e)
    for e in range(600):
        instance.add_set_ids(f"unit{e}", [e], 40.0)
    for s in range(80):
        members = sorted(rng.sample(range(600), 25))
        instance.add_set_ids(f"s{s}", members, float(rng.randint(1, 50)))
    return instance


class TestSampledGreedy:
    def test_fallback_bit_identical_to_greedy(self):
        instance = pin_instance()  # 600 < DEFAULT_EXACT_THRESHOLD
        stats = {}
        sampled = sampled_greedy_wsc(instance, seed=5, stats=stats)
        reference = greedy_wsc(instance)
        assert stats["mode"] == "exact-fallback"
        assert sampled.set_ids == reference.set_ids
        assert sampled.cost == reference.cost

    def test_forced_sampling_feasible(self):
        instance = pin_instance()
        for seed in (0, 1, 99):
            solution = sampled_greedy_wsc(instance, seed=seed, exact_threshold=0)
            instance.verify_solution(solution)

    def test_forced_sampling_pinned_seed_regression(self):
        # Pinned output of the sampling estimator: any drift in the RNG
        # stream, sampling schedule, heap tie-breaks, or the residual
        # repair changes these numbers and must be deliberate.
        instance = pin_instance()
        stats = {}
        solution = sampled_greedy_wsc(
            instance, seed=123, rates=(0.1, 0.3), exact_threshold=0, stats=stats
        )
        assert solution.cost == 2484.0
        assert len(solution.set_ids) == 93
        assert stats["mode"] == "sampled"
        assert [r["sampled"] for r in stats["rounds"]] == [60, 180]
        assert stats["residual_elements"] == 6

    def test_forced_sampling_deterministic(self):
        instance = pin_instance()
        a = sampled_greedy_wsc(instance, seed=7, exact_threshold=0)
        b = sampled_greedy_wsc(instance, seed=7, exact_threshold=0)
        assert a.set_ids == b.set_ids
        assert a.cost == b.cost

    def test_stats_rounds_shrink_uncovered(self):
        instance = pin_instance()
        stats = {}
        sampled_greedy_wsc(instance, seed=3, exact_threshold=0, stats=stats)
        uncovered = [r["uncovered_after"] for r in stats["rounds"]]
        assert uncovered == sorted(uncovered, reverse=True)

    def test_solve_wsc_method(self):
        instance = pin_instance()
        solution = solve_wsc(instance, method="sampled", seed=4)
        instance.verify_solution(solution)

    def test_lazy_workload_matches_materialized(self):
        workload = ScaleTierWorkload(1500, seed=2)
        lazy = sampled_greedy_wsc(workload, seed=9)  # exact fallback path
        eager = sampled_greedy_wsc(workload.wsc_instance(), seed=9)
        assert lazy.set_ids == eager.set_ids
        assert lazy.cost == eager.cost

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_default_path_within_greedy_guarantee(self, seed):
        """Oracle: on brute-forceable instances the default path (which
        takes the exactness fallback at this size) stays within the
        Chvátal ``H(Δ) <= ln Δ + 1`` factor of the optimum."""
        rng = random.Random(f"sublinear-oracle-{seed}")
        num_elements = rng.randint(3, 8)
        instance = WSCInstance()
        for e in range(num_elements):
            instance.add_element(e)
        for e in range(num_elements):
            instance.add_set_ids(f"unit{e}", [e], rng.randint(1, 10))
        for s in range(rng.randint(1, 5)):
            size = rng.randint(1, num_elements)
            members = sorted(rng.sample(range(num_elements), size))
            instance.add_set_ids(f"s{s}", members, rng.randint(1, 10))
        solution = sampled_greedy_wsc(instance, seed=seed)
        instance.verify_solution(solution)
        optimum = exact_wsc(instance)
        bound = (math.log(max(instance.degree(), 2)) + 1) * optimum.cost
        assert solution.cost <= bound + 1e-9

    def test_derive_seed_is_content_addressed(self):
        q1 = [frozenset({"a", "b"}), frozenset({"c"})]
        q2 = [frozenset({"c"}), frozenset({"b", "a"})]  # same content, other order
        q3 = [frozenset({"a", "b"}), frozenset({"d"})]
        assert derive_seed(5, q1) == derive_seed(5, q2)
        assert derive_seed(5, q1) != derive_seed(6, q1)
        assert derive_seed(5, q1) != derive_seed(5, q3)


class TestScaleTierWorkload:
    def test_dual_access_consistency(self):
        workload = ScaleTierWorkload(3000, seed=11)
        for element in range(0, 3000, 113):
            for set_id in workload.sets_containing(element):
                assert element in workload.set_members(set_id)
        for set_id in range(0, workload.num_sets, 5):
            members = workload.set_members(set_id)
            assert members, f"set {set_id} empty"
            for element in members[:3]:
                assert set_id in workload.sets_containing(element)

    def test_materialized_twin_is_equivalent(self):
        workload = ScaleTierWorkload(800, seed=6)
        instance = workload.wsc_instance()
        instance.validate_coverable()
        assert instance.universe_size == 800
        assert instance.num_sets == workload.num_sets
        for set_id in range(workload.num_sets):
            assert instance.set_members(set_id) == workload.set_members(set_id)
            assert instance.set_cost(set_id) == workload.set_cost(set_id)

    def test_bit_identical_across_constructions(self):
        a = ScaleTierWorkload(2000, seed=42)
        b = ScaleTierWorkload(2000, seed=42)
        assert a._maps == b._maps
        assert a.set_costs() == b.set_costs()

    def test_named_tiers(self):
        assert set(SCALE_TIERS) == {"100k", "300k", "1m", "3m", "10m"}
        workload = scale_tier_workload("100k", seed=3)
        assert workload.universe_size == 100_000
        with pytest.raises(DatasetError):
            scale_tier_workload("2m")

    def test_constructor_validation(self):
        with pytest.raises(DatasetError):
            ScaleTierWorkload(0)
        with pytest.raises(DatasetError):
            ScaleTierWorkload(100, frequency=0)
        with pytest.raises(DatasetError):
            ScaleTierWorkload(10, num_sets=11)


class TestLazyQueryLoad:
    def test_scale_tier_queries_mirror_synthetic(self):
        load = scale_tier_queries("100k", seed=9)
        instance = synthetic(100_000, seed=9)
        assert len(load) == len(instance.queries)
        # Lazy iteration yields the same queries in the same order
        # without ever holding the list (spot-check a prefix).
        for streamed, materialized in zip(load, instance.queries):
            assert streamed == materialized
            break
        q = instance.queries[0]
        assert load.weight(q) == instance.weight(q)
        assert list(load.candidates(q)) == list(instance.candidates(q))

    def test_weight_honours_length_cap(self):
        load = scale_tier_queries("100k", seed=1, max_classifier_length=2)
        assert load.weight(frozenset({"p1", "p2", "p3"})) == math.inf

    def test_streaming_solver_runs_on_lazy_load(self):
        lazy = LazyQueryLoad(
            SyntheticQueryStream(200, seed=3),
            synthetic(200, seed=3).cost,
            name="lazy-200",
        )
        eager = synthetic(200, seed=3)
        solver = make_solver("mc3-streaming")
        lazy_result = solver.solve(lazy)
        eager_result = solver.solve(eager)
        assert lazy_result.solution.classifiers == eager_result.solution.classifiers
        assert lazy_result.cost == eager_result.cost


class TestSampledSolverIntegration:
    def test_registered(self):
        names = available_solvers()
        assert "mc3-sampled" in names
        assert "mc3-streaming" in names

    def test_jobs_invariance(self):
        instance = synthetic(300, seed=5)
        sequential = make_solver("mc3-sampled", seed=11).solve(instance)
        pooled = make_solver("mc3-sampled", seed=11, jobs=4).solve(instance)
        assert sequential.solution.classifiers == pooled.solution.classifiers
        assert sequential.cost == pooled.cost

    def test_seeded_cost_pinned_and_bounded(self):
        # Seeded end-to-end: the cost is reproducible, and every
        # component carries a lower bound no larger than it.
        result = make_solver("mc3-sampled", seed=11).solve(synthetic(300, seed=5))
        assert result.cost == 3898.0
        bound = result.details["engine"]["lower_bound"]
        assert bound["components"] >= 1
        assert bound["bounded"] == bound["components"]
        assert 0 < bound["value"] <= result.cost

    def test_cache_token_names_sampling_knobs(self):
        base = make_solver("mc3-sampled", seed=1).cache_token()
        other_seed = make_solver("mc3-sampled", seed=2).cache_token()
        other_rates = make_solver(
            "mc3-sampled", seed=1, sample_rates=(0.5,)
        ).cache_token()
        assert base != other_seed
        assert base != other_rates

    def test_sampled_rung_registered_and_solves(self):
        assert "sampled" in FALLBACK_RUNGS
        rung = resolve_rung("sampled")
        assert rung.name == "sampled"
        instance = synthetic(200, seed=2)
        policy = ResiliencePolicy(fallback=("sampled", "query-oriented"))
        result = make_solver("mc3-general", resilience=policy).solve(instance)
        result.solution.verify(instance)

    def test_streaming_solver_feasible(self):
        instance = synthetic(300, seed=5)
        result = make_solver("mc3-streaming").solve(instance)
        assert result.details["queries_streamed"] == len(instance.queries)
        assert (
            result.details["already_covered"] + result.details["covers_bought"]
            == len(instance.queries)
        )


class TestCrossProcessDeterminism:
    def test_sampled_stable_across_hash_seeds(self, tmp_path):
        """The full sampled pipeline (stream generator -> preprocess ->
        per-component derive_seed -> sampled greedy) is bit-identical
        across PYTHONHASHSEED values — nothing in the chain may lean on
        builtin hash ordering."""
        script = (
            "import sys\n"
            "from repro.datasets import synthetic\n"
            "from repro.solvers import make_solver\n"
            "r = make_solver('mc3-sampled', seed=11).solve(synthetic(200, seed=5))\n"
            "sig = (r.cost, sorted(tuple(sorted(c)) for c in r.solution.classifiers))\n"
            "print(repr(sig))\n"
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


class TestCliFlags:
    def test_seed_and_sample_rate_forwarded(self, tmp_path, capsys):
        from repro.cli import main as mc3_main
        from repro.core import MC3Instance, save_instance

        instance = MC3Instance(
            ["a b", "c", "a c"],
            {"a": 1, "b": 2, "a b": 2.5, "c": 1, "a c": 1.5},
            name="cli-sublinear",
        )
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        code = mc3_main(
            [
                "solve",
                str(path),
                "--solver",
                "mc3-sampled",
                "--seed",
                "9",
                "--sample-rate",
                "0.2",
                "--sample-rate",
                "0.5",
            ]
        )
        assert code == 0
        assert "cost" in capsys.readouterr().out
