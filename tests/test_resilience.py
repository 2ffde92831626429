"""Tests for the fault-tolerant execution layer and the chaos harness.

Structure:

* every ``on_error`` policy under seeded chaos (raise / degrade / skip);
* fallback-chain mechanics: exhaustion history, timeout-triggered
  fallback, the k2-exact rung falling through on long queries;
* worker-crash recovery: a chaos-killed pool worker (a real
  ``os._exit`` → ``BrokenProcessPool``) still yields a feasible,
  independently verified full solution;
* the determinism contract: a fixed chaos seed produces bit-identical
  output across ``jobs=1`` and ``jobs=4``, and (hypothesis) a run with
  fallbacks and zero injected faults is bit-identical to the default
  policy;
* exception transport: ``UncoverableQueryError``/``FallbackExhaustedError``
  survive pickling intact, and under the default policy a failed
  component re-raises the solver's own exception annotated with the
  component index and the worker traceback, at ``jobs`` 1 and 2.

The CI chaos job re-runs this module under different seeds via the
``REPRO_CHAOS_SEEDS`` environment variable (comma-separated ints).
"""

from __future__ import annotations

import os
import pickle
import random
from typing import Dict, FrozenSet

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost, UniformCost
from repro.core.kernels import backend_available
from repro.core.properties import iter_nonempty_subsets
from repro.devtools.chaos import (
    CHAOS_MODES,
    ChaosError,
    ChaosInjector,
    ChaosWorkerCrash,
)
from repro.engine import (
    FALLBACK_RUNGS,
    ComponentFailure,
    PartialSolution,
    ResiliencePolicy,
    SolveEngine,
    resolve_rung,
    run_components,
)
from repro.exceptions import (
    FallbackExhaustedError,
    InfeasibleSolutionError,
    ReductionError,
    ReproError,
    SolverError,
    UncoverableQueryError,
)
from repro.solvers import GeneralSolver, make_solver

#: Seeds the chaos determinism tests run under; CI's chaos job overrides.
CHAOS_SEEDS = [
    int(part)
    for part in os.environ.get("REPRO_CHAOS_SEEDS", "0,1").split(",")
    if part.strip()
]

PRIMARY = "mc3-general"  # GeneralSolver.name — the chain's first rung


def multi_component_instance(
    seed: int,
    blocks: int = 3,
    queries_per_block: int = 3,
    props_per_block: int = 5,
    min_length: int = 2,
    max_length: int = 3,
) -> MC3Instance:
    """An instance that provably decomposes into ``blocks`` components
    (each block draws queries from its own property namespace)."""
    rng = random.Random(f"resilience-test-{seed}")
    queries = []
    costs: Dict[FrozenSet[str], float] = {}
    for block in range(blocks):
        props = [f"b{block}p{i}" for i in range(props_per_block)]
        block_queries = set()
        attempts = 0
        while len(block_queries) < queries_per_block and attempts < 200:
            length = rng.randint(min_length, min(max_length, len(props)))
            block_queries.add(frozenset(rng.sample(props, length)))
            attempts += 1
        for q in sorted(block_queries, key=sorted):
            queries.append(q)
            for clf in iter_nonempty_subsets(q):
                key = (seed,) + tuple(sorted(clf))
                costs.setdefault(
                    clf, float(random.Random(repr(key)).randint(1, 20))
                )
    return MC3Instance(queries, TableCost(costs), name=f"resil{seed}")


def tiny_components(count: int = 3):
    """Standalone single-property-namespace instances usable as
    pre-decomposed components for direct executor tests."""
    return [
        MC3Instance(
            [frozenset({f"c{i}x"}), frozenset({f"c{i}x", f"c{i}y"})],
            UniformCost(1.0),
            name=f"comp{i}",
        )
        for i in range(count)
    ]


class AlwaysFails:
    """Picklable component solver that always raises (for pool tests)."""

    name = "always-fails"

    def solve_component(self, component):
        raise SolverError("boom: deliberate test failure")


class RaisesUncoverable:
    """Picklable solver raising UncoverableQueryError with a real query."""

    name = "raises-uncoverable"

    def solve_component(self, component):
        q = sorted(component.queries, key=sorted)[0]
        raise UncoverableQueryError(q)


def fail_plan(rungs, attempts=1, index=0, mode="fault"):
    """A chaos plan pinning ``mode`` on every (rung, attempt) pair."""
    return {
        (index, rung, attempt): mode
        for rung in rungs
        for attempt in range(attempts)
    }


# ----------------------------------------------------------------------
# The chaos injector itself
# ----------------------------------------------------------------------


class TestChaosInjector:
    def test_decision_is_deterministic_and_seed_sensitive(self):
        a = ChaosInjector(seed=1, fault_rate=0.5)
        b = ChaosInjector(seed=1, fault_rate=0.5)
        c = ChaosInjector(seed=2, fault_rate=0.5)
        grid = [(i, r, n) for i in range(8) for r in ("x", "y") for n in range(3)]
        decisions_a = [a.decision(*key) for key in grid]
        assert decisions_a == [b.decision(*key) for key in grid]
        assert decisions_a != [c.decision(*key) for key in grid]
        assert any(d == "fault" for d in decisions_a)
        assert any(d is None for d in decisions_a)

    def test_plan_overrides_rates(self):
        injector = ChaosInjector(seed=0, fault_rate=1.0, plan={(0, "g", 0): None})
        assert injector.decision(0, "g", 0) is None
        assert injector.decision(0, "g", 1) == "fault"

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(SolverError):
            ChaosInjector(fault_rate=0.7, stall_rate=0.7)

    def test_unknown_plan_mode_rejected(self):
        with pytest.raises(SolverError):
            ChaosInjector(plan={(0, "g", 0): "meteor"})
        for mode in CHAOS_MODES:
            ChaosInjector(plan={(0, "g", 0): mode})  # all legal

    def test_crash_in_main_process_is_simulated(self):
        injector = ChaosInjector(plan={(0, "greedy", 0): "crash"})
        rung = injector.wrap(resolve_rung("greedy"), 0, 0)
        with pytest.raises(ChaosWorkerCrash):
            rung.solve_component(tiny_components(1)[0])

    def test_chaos_rung_round_trips_through_pickle(self):
        injector = ChaosInjector(seed=5, fault_rate=0.25)
        rung = injector.wrap(resolve_rung("greedy"), 3, 1)
        clone = pickle.loads(pickle.dumps(rung))
        assert clone.name == "greedy"
        assert clone.index == 3 and clone.attempt == 1
        assert clone.injector.decision(3, "greedy", 1) == injector.decision(
            3, "greedy", 1
        )


# ----------------------------------------------------------------------
# Policy and rung plumbing
# ----------------------------------------------------------------------


class TestPolicy:
    def test_rejects_unknown_on_error(self):
        with pytest.raises(SolverError):
            ResiliencePolicy(on_error="explode")

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(SolverError):
            ResiliencePolicy(timeout_seconds=0.0)

    def test_resolve_rung_rejects_unknown_name(self):
        with pytest.raises(SolverError, match="unknown fallback rung"):
            resolve_rung("nope")
        with pytest.raises(SolverError):
            resolve_rung(42)
        for name in FALLBACK_RUNGS:
            assert resolve_rung(name).name == name


# ----------------------------------------------------------------------
# on_error policies end to end (through the solver + engine stack)
# ----------------------------------------------------------------------


class TestOnErrorPolicies:
    def test_raise_propagates_fallback_exhausted(self):
        instance = multi_component_instance(0)
        chaos = ChaosInjector(plan=fail_plan([PRIMARY, "greedy"], attempts=2))
        solver = GeneralSolver(
            resilience=ResiliencePolicy(
                on_error="raise",
                max_retries=1,
                fallback=("greedy",),
                chaos=chaos,
            )
        )
        with pytest.raises(FallbackExhaustedError) as excinfo:
            solver.solve(instance)
        exc = excinfo.value
        assert exc.component_index == 0
        # Full chain history: 2 attempts on the primary, 2 on greedy.
        assert [f.rung for f in exc.failures] == [PRIMARY, PRIMARY, "greedy", "greedy"]
        assert [f.attempt for f in exc.failures] == [0, 1, 0, 1]
        assert all(f.kind == "error" for f in exc.failures)
        assert all(f.error_type == "ChaosError" for f in exc.failures)

    def test_degrade_returns_complete_partial_solution(self):
        instance = multi_component_instance(1)
        chaos = ChaosInjector(plan=fail_plan([PRIMARY, "greedy"]))
        solver = GeneralSolver(
            resilience=ResiliencePolicy(
                on_error="degrade", fallback=("greedy",), chaos=chaos
            )
        )
        result = solver.solve(instance)  # verify=True: coverage checked
        solution = result.solution
        assert isinstance(solution, PartialSolution)
        assert solution.complete
        assert solution.degraded_components == (0,)
        assert not solution.skipped_components
        assert len(solution.failures) == 2
        engine = result.details["engine"]
        assert engine["rungs"]["degraded"] == 1
        assert engine["resilience"]["degraded_components"] == [0]
        # Every recorded failure names the rung that failed.
        for record in engine["resilience"]["failure_records"]:
            assert record["rung"] in (PRIMARY, "greedy")

    def test_skip_leaves_component_uncovered_but_verifies(self):
        instance = multi_component_instance(2)
        chaos = ChaosInjector(plan=fail_plan([PRIMARY]))
        solver = GeneralSolver(
            resilience=ResiliencePolicy(on_error="skip", chaos=chaos)
        )
        result = solver.solve(instance)
        solution = result.solution
        assert isinstance(solution, PartialSolution)
        assert not solution.complete
        assert solution.skipped_components == (0,)
        assert solution.uncovered_queries
        # The skipped queries are exactly a subset of the instance load.
        assert solution.uncovered_queries < frozenset(instance.queries)
        # And the partial solution re-verifies from scratch.
        solution.verify(instance)

    def test_uncoverable_component_raises_unchanged(self):
        # A query whose every classifier is missing from the table has
        # no finite-cost cover; no fallback rung can repair that.
        instance = MC3Instance(
            [frozenset({"a"}), frozenset({"z", "w"})],
            TableCost({frozenset({"a"}): 1.0}),
            name="uncoverable",
        )
        solver = GeneralSolver(
            resilience=ResiliencePolicy(
                on_error="raise", fallback=("greedy", "query-oriented")
            )
        )
        with pytest.raises(UncoverableQueryError):
            solver.solve(instance)

    def test_uncoverable_component_is_skipped_under_degrade(self):
        instance = MC3Instance(
            [frozenset({"a"}), frozenset({"z", "w"})],
            TableCost({frozenset({"a"}): 1.0}),
            name="uncoverable-degrade",
        )
        solver = GeneralSolver(
            resilience=ResiliencePolicy(on_error="degrade", fallback=("greedy",))
        )
        solution = solver.solve(instance).solution
        assert isinstance(solution, PartialSolution)
        assert frozenset({"z", "w"}) in solution.uncovered_queries
        assert frozenset({"a"}) in solution.classifiers


# ----------------------------------------------------------------------
# Fallback-chain mechanics
# ----------------------------------------------------------------------


class TestFallbackChain:
    def test_timeout_triggers_fallback(self):
        instance = multi_component_instance(3)
        chaos = ChaosInjector(
            plan={(0, PRIMARY, 0): "stall"}, stall_seconds=0.2
        )
        solver = GeneralSolver(
            resilience=ResiliencePolicy(
                timeout_seconds=0.05,
                on_error="raise",
                fallback=("greedy",),
                chaos=chaos,
            )
        )
        result = solver.solve(instance)
        engine = result.details["engine"]
        assert engine["resilience"]["failure_kinds"] == {"timeout": 1}
        assert engine["rungs"]["greedy"] == 1
        records = engine["resilience"]["failure_records"]
        assert records[0]["rung"] == PRIMARY
        assert records[0]["kind"] == "timeout"

    def test_timeouts_not_retried_without_opt_in(self):
        instance = multi_component_instance(3)
        chaos = ChaosInjector(
            plan={(0, PRIMARY, 0): "stall", (0, PRIMARY, 1): "stall"},
            stall_seconds=0.2,
        )
        policy = ResiliencePolicy(
            timeout_seconds=0.05,
            max_retries=2,
            fallback=("greedy",),
            chaos=chaos,
        )
        result = GeneralSolver(resilience=policy).solve(instance)
        # A deterministic solver that overran once will overrun again:
        # the chain must fall back immediately, not burn retries.
        assert result.details["engine"]["resilience"]["retries"] == 0
        assert result.details["engine"]["resilience"]["fallbacks"] == 1

    def test_retries_consumed_before_fallback(self):
        instance = multi_component_instance(4)
        chaos = ChaosInjector(plan=fail_plan([PRIMARY], attempts=2))
        policy = ResiliencePolicy(max_retries=2, fallback=("greedy",), chaos=chaos)
        result = GeneralSolver(resilience=policy).solve(instance)
        engine = result.details["engine"]
        # Attempt 0 and 1 fail, attempt 2 (same rung) succeeds: no fallback.
        assert engine["resilience"]["retries"] == 2
        assert engine["resilience"]["fallbacks"] == 0
        assert engine["rungs"][PRIMARY] == 3

    def test_infeasible_output_rejected_and_chain_advances(self):
        instance = multi_component_instance(5)
        chaos = ChaosInjector(plan={(0, PRIMARY, 0): "infeasible"})
        policy = ResiliencePolicy(fallback=("greedy",), chaos=chaos)
        result = GeneralSolver(resilience=policy).solve(instance)
        engine = result.details["engine"]
        assert engine["resilience"]["failure_kinds"] == {"infeasible": 1}
        assert engine["rungs"]["greedy"] == 1

    def test_k2_exact_rung_falls_through_on_long_queries(self):
        # Components here have k=3 queries, so the k2-exact rung raises
        # ReductionError and the chain moves on to greedy.
        instance = multi_component_instance(6, min_length=3, max_length=3)
        chaos = ChaosInjector(plan=fail_plan([PRIMARY]))
        policy = ResiliencePolicy(fallback=("k2-exact", "greedy"), chaos=chaos)
        result = GeneralSolver(resilience=policy).solve(instance)
        engine = result.details["engine"]
        records = engine["resilience"]["failure_records"]
        assert [r["rung"] for r in records if r["index"] == 0] == [
            PRIMARY,
            "k2-exact",
        ]
        assert records[1]["error_type"] == "ReductionError"
        assert engine["rungs"]["greedy"] == 1

    def test_custom_object_rung_is_accepted(self):
        components = tiny_components(1)
        tasks = [(0, AlwaysFails(), components[0], None, None)]
        policy = ResiliencePolicy(fallback=(resolve_rung("greedy"),))
        outcomes, report = run_components(tasks, jobs=1, policy=policy)
        assert outcomes[0].rung == "greedy"
        assert report.failures[0].rung == "always-fails"


# ----------------------------------------------------------------------
# Circuit breakers layered on the chain (service/breaker.py board)
# ----------------------------------------------------------------------


class TestBreakerIntegration:
    def board(self, threshold=2, probe_interval=4):
        from repro.service.breaker import BreakerBoard

        return BreakerBoard(threshold=threshold, probe_interval=probe_interval)

    def test_tripped_rung_is_skipped_with_probe_schedule(self):
        # The primary rung always faults: components 0-1 trip the
        # breaker, 2-4 skip primary instantly (breaker-open), component
        # 5 is the deterministic half-open probe (it faults → circuit
        # reopens), 6-7 skip again.  Direct executor path so component
        # indices are explicit (the engine's preprocessing would merge
        # or prune instance-level blocks).
        components = tiny_components(8)
        chaos = ChaosInjector(
            plan={(i, "greedy", 0): "fault" for i in range(8)}
        )
        board = self.board(threshold=2, probe_interval=4)
        policy = ResiliencePolicy(
            on_error="degrade",
            fallback=("primal-dual",),
            breakers=board,
            chaos=chaos,
        )
        tasks = [
            (i, resolve_rung("greedy"), component, None, None)
            for i, component in enumerate(components)
        ]
        outcomes, report = run_components(tasks, jobs=1, policy=policy)
        # Every component still got a real answer from the fallback.
        assert [o.rung for o in outcomes] == ["primal-dual"] * 8
        # Admitted primary attempts: comps 0, 1, and the probe (comp 5).
        assert report.kind_counts["error"] == 3
        assert report.kind_counts["breaker-open"] == 5
        states = board.states()
        assert states["greedy"]["state"] == "open"
        assert states["greedy"]["trips"] == 1
        assert states["greedy"]["probes"] == 1
        assert states["greedy"]["skips"] == 5
        assert states["primal-dual"]["state"] == "closed"

    def test_successful_probe_closes_the_circuit(self):
        # Primary faults only for components 0-1; the first probe
        # (component 2, probe_interval=1) succeeds and closes the
        # circuit, so component 3 runs primary normally again.
        components = tiny_components(4)
        chaos = ChaosInjector(
            plan={(i, "greedy", 0): "fault" for i in range(2)}
        )
        board = self.board(threshold=2, probe_interval=1)
        policy = ResiliencePolicy(
            on_error="degrade",
            fallback=("primal-dual",),
            breakers=board,
            chaos=chaos,
        )
        tasks = [
            (i, resolve_rung("greedy"), component, None, None)
            for i, component in enumerate(components)
        ]
        outcomes, report = run_components(tasks, jobs=1, policy=policy)
        assert [o.rung for o in outcomes] == [
            "primal-dual",
            "primal-dual",
            "greedy",
            "greedy",
        ]
        assert report.kind_counts == {"error": 2}
        states = board.states()
        assert states["greedy"]["state"] == "closed"
        assert states["greedy"]["trips"] == 1
        assert states["greedy"]["probes"] == 1
        assert states["greedy"]["successes"] == 2

    def test_breaker_exhaustion_degrades_not_hangs(self):
        # Circuit open and no fallback rung left: the chain synthesizes
        # breaker-open failures until exhausted, then degrades — it
        # never blocks waiting for the rung to heal.
        components = tiny_components(3)
        chaos = ChaosInjector(plan={(0, "greedy", 0): "fault"})
        board = self.board(threshold=1, probe_interval=100)
        policy = ResiliencePolicy(
            on_error="degrade", breakers=board, chaos=chaos
        )
        tasks = [
            (i, resolve_rung("greedy"), component, None, None)
            for i, component in enumerate(components)
        ]
        outcomes, report = run_components(tasks, jobs=1, policy=policy)
        # Component 0 tripped the breaker; 1 and 2 were skipped outright.
        assert [o.rung for o in outcomes] == ["degraded"] * 3
        assert report.degraded == [0, 1, 2]
        assert report.kind_counts == {"error": 1, "breaker-open": 2}
        assert board.states()["greedy"]["state"] == "open"

    def test_breaker_board_identical_across_jobs(self):
        # The same workload drives the breaker through the same final
        # state sequentially and pooled (outcome identity is asserted
        # by the determinism suite; here we pin the health state).
        def drive(jobs):
            instance = multi_component_instance(24, blocks=6)
            chaos = ChaosInjector(
                plan={(i, PRIMARY, 0): "fault" for i in range(6)}
            )
            board = self.board(threshold=2, probe_interval=4)
            policy = ResiliencePolicy(
                on_error="degrade",
                fallback=("greedy",),
                breakers=board,
                chaos=chaos,
            )
            result = GeneralSolver(resilience=policy, jobs=jobs).solve(instance)
            return result.solution.classifiers, result.cost

        sequential = drive(1)
        assert sequential == drive(1)


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------


class TestCrashRecovery:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chaos_killed_worker_recovers_to_full_solution(self, jobs):
        instance = multi_component_instance(7)
        chaos = ChaosInjector(plan={(0, PRIMARY, 0): "crash"})
        policy = ResiliencePolicy(fallback=("greedy",), chaos=chaos)
        solver = GeneralSolver(jobs=jobs, resilience=policy)
        result = solver.solve(instance)  # verify=True: independent checker
        engine = result.details["engine"]
        assert engine["resilience"]["failure_kinds"]["crash"] == 1
        assert engine["rungs"]["greedy"] == 1
        if jobs > 1:
            # A real worker death broke and rebuilt the pool (the first
            # rebuild happens on the break, a second isolates the rerun).
            assert engine["resilience"]["pool_rebuilds"] >= 1
            assert engine["resilience"]["quarantined_components"] == [0]

    def test_crash_recovery_matches_sequential_output(self):
        instance = multi_component_instance(8)
        chaos = ChaosInjector(plan={(1, PRIMARY, 0): "crash"})

        def run(jobs):
            policy = ResiliencePolicy(fallback=("greedy",), chaos=chaos)
            return GeneralSolver(jobs=jobs, resilience=policy).solve(instance)

        sequential, pooled = run(1), run(2)
        assert sequential.solution.classifiers == pooled.solution.classifiers
        assert sequential.cost == pooled.cost
        assert (
            sequential.details["engine"]["rungs"]
            == pooled.details["engine"]["rungs"]
        )

    def test_repeated_crashes_quarantine_then_degrade(self):
        components = tiny_components(3)
        chaos = ChaosInjector(
            plan={
                (0, "greedy", 0): "crash",
                (0, "primal-dual", 0): "crash",
            }
        )
        tasks = [
            (i, resolve_rung("greedy"), component, None, None)
            for i, component in enumerate(components)
        ]
        policy = ResiliencePolicy(
            fallback=("primal-dual",), on_error="degrade", chaos=chaos
        )
        outcomes, report = run_components(tasks, jobs=2, policy=policy)
        assert [o.rung for o in outcomes] == ["degraded", "greedy", "greedy"]
        assert report.kind_counts["crash"] == 2
        assert report.degraded == [0]


# ----------------------------------------------------------------------
# Determinism contracts
# ----------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_fixed_seed_is_bit_identical_across_jobs(self, seed):
        instance = multi_component_instance(seed, blocks=4)
        chaos = ChaosInjector(seed=seed, fault_rate=0.5, infeasible_rate=0.2)
        policy = ResiliencePolicy(
            on_error="degrade",
            max_retries=1,
            fallback=("greedy", "query-oriented"),
            chaos=chaos,
        )

        def run(jobs):
            solver = GeneralSolver(jobs=jobs, resilience=policy)
            return solver.solve(instance)

        sequential, pooled = run(1), run(4)
        assert sequential.solution.classifiers == pooled.solution.classifiers
        assert sequential.cost == pooled.cost
        seq_engine = sequential.details["engine"]
        pool_engine = pooled.details["engine"]
        assert seq_engine.get("rungs") == pool_engine.get("rungs")
        seq_res, pool_res = seq_engine["resilience"], pool_engine["resilience"]
        for key in ("degraded_components", "skipped_components", "failure_kinds"):
            assert seq_res[key] == pool_res[key], key
        if isinstance(sequential.solution, PartialSolution):
            assert (
                sequential.solution.uncovered_queries
                == pooled.solution.uncovered_queries
            )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_fixed_seed_is_bit_identical_across_kernel_backends(self, seed):
        # The fault-injection decisions key off (component, rung,
        # attempt), never off the kernel implementation, so a chaos run
        # under the array backend must replay the pyjit run exactly —
        # same retries, same degradations, same merged solution.
        if not backend_available("array"):
            pytest.skip("array backend needs numpy >= 2")
        instance = multi_component_instance(seed, blocks=4)

        def run(backend):
            chaos = ChaosInjector(seed=seed, fault_rate=0.5, infeasible_rate=0.2)
            policy = ResiliencePolicy(
                on_error="degrade",
                max_retries=1,
                fallback=("greedy", "query-oriented"),
                chaos=chaos,
            )
            return GeneralSolver(resilience=policy, backend=backend).solve(instance)

        pure, array = run("pyjit"), run("array")
        assert pure.solution.classifiers == array.solution.classifiers
        assert pure.cost == array.cost
        pure_engine, array_engine = pure.details["engine"], array.details["engine"]
        assert pure_engine.get("rungs") == array_engine.get("rungs")
        assert pure_engine["backend"] == "pyjit"
        assert array_engine["backend"] == "array"
        for key in ("degraded_components", "skipped_components", "failure_kinds"):
            assert (
                pure_engine["resilience"][key] == array_engine["resilience"][key]
            ), key
        if isinstance(pure.solution, PartialSolution):
            assert (
                pure.solution.uncovered_queries == array.solution.uncovered_queries
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_degrade_with_zero_faults_matches_plain_engine(self, seed):
        instance = multi_component_instance(seed, blocks=2, queries_per_block=2)
        plain = GeneralSolver().solve(instance)
        policy = ResiliencePolicy(
            on_error="degrade", max_retries=1, fallback=("greedy",)
        )
        resilient = GeneralSolver(resilience=policy).solve(instance)
        assert resilient.solution.classifiers == plain.solution.classifiers
        assert resilient.cost == plain.cost
        assert not isinstance(resilient.solution, PartialSolution)
        assert resilient.details["engine"]["resilience"]["failures"] == 0
        # No policy means the default policy, sequential and pooled.
        for jobs in (1, 2):
            default, _ = SolveEngine(jobs=jobs).run(instance, GeneralSolver())
            explicit, _ = SolveEngine(
                jobs=jobs, resilience=ResiliencePolicy()
            ).run(instance, GeneralSolver())
            assert default.classifiers == explicit.classifiers
            assert default.cost.hex() == explicit.cost.hex()


# ----------------------------------------------------------------------
# Exception transport across the process boundary
# ----------------------------------------------------------------------


class TestExceptionTransport:
    def test_uncoverable_query_error_pickle_round_trip(self):
        query = frozenset({"alpha", "beta"})
        original = UncoverableQueryError(query)
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is UncoverableQueryError
        assert clone.query == query
        assert str(clone) == str(original)

    def test_uncoverable_query_error_custom_message_round_trip(self):
        query = frozenset({"p"})
        original = UncoverableQueryError(query, "only 1 cover, need 2")
        clone = pickle.loads(pickle.dumps(original))
        assert clone.query == query
        assert clone.args == ("only 1 cover, need 2",)

    def test_fallback_exhausted_error_pickle_round_trip(self):
        failure = ComponentFailure(
            index=2, rung="greedy", attempt=1, kind="error",
            error_type="SolverError", message="boom",
        )
        original = FallbackExhaustedError(2, (failure,))
        clone = pickle.loads(pickle.dumps(original))
        assert clone.component_index == 2
        assert clone.failures == (failure,)
        assert "greedy#1:error" in str(clone)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_query_attribute_survives_a_real_pool(self, jobs):
        components = tiny_components(2)
        tasks = [
            (i, RaisesUncoverable(), component, None, None)
            for i, component in enumerate(components)
        ]
        with pytest.raises(UncoverableQueryError) as excinfo:
            run_components(tasks, jobs, ResiliencePolicy())
        exc = excinfo.value
        # The query is a real frozenset, not a scrambled message string.
        assert isinstance(exc.query, frozenset)
        assert exc.query in {q for c in components for q in c.queries}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_traceback_and_index_annotated_in_pool(self, jobs):
        components = tiny_components(2)
        tasks = [
            (i, AlwaysFails(), component, None, None)
            for i, component in enumerate(components)
        ]
        with pytest.raises(SolverError) as excinfo:
            run_components(tasks, jobs, ResiliencePolicy())
        exc = excinfo.value
        # The solver's own exception, not a FallbackExhaustedError.
        assert type(exc) is SolverError
        assert exc.component_index in (0, 1)
        assert "AlwaysFails" in exc.worker_traceback or "solve_component" in (
            exc.worker_traceback
        )
        assert "boom" in exc.worker_traceback

    def test_failure_records_carry_worker_traceback(self):
        components = tiny_components(2)
        tasks = [
            (i, AlwaysFails(), component, None, None)
            for i, component in enumerate(components)
        ]
        policy = ResiliencePolicy(on_error="skip")
        _, report = run_components(tasks, jobs=2, policy=policy)
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.rung == "always-fails"
            assert failure.error_type == "SolverError"
            assert "boom" in failure.traceback


# ----------------------------------------------------------------------
# PartialSolution semantics
# ----------------------------------------------------------------------


class TestPartialSolution:
    def test_verify_excludes_recorded_uncovered_queries(self):
        instance = MC3Instance(
            [frozenset({"a"}), frozenset({"b"})], UniformCost(1.0), name="ps"
        )
        partial = PartialSolution(
            [frozenset({"a"})],
            1.0,
            uncovered_queries=[frozenset({"b"})],
            skipped_components=(1,),
        )
        partial.verify(instance)
        assert not partial.complete

    def test_verify_still_rejects_wrong_cost(self):
        instance = MC3Instance([frozenset({"a"})], UniformCost(1.0), name="ps2")
        partial = PartialSolution([frozenset({"a"})], 99.0)
        with pytest.raises(InfeasibleSolutionError):
            partial.verify(instance)

    def test_verify_rejects_uncovered_query_not_recorded(self):
        instance = MC3Instance(
            [frozenset({"a"}), frozenset({"b"})], UniformCost(1.0), name="ps3"
        )
        partial = PartialSolution([frozenset({"a"})], 1.0)
        with pytest.raises(InfeasibleSolutionError):
            partial.verify(instance)


# ----------------------------------------------------------------------
# Registry + CLI surface
# ----------------------------------------------------------------------


class TestSurface:
    @pytest.mark.parametrize(
        "name",
        ["mc3-general", "mc3-k2", "exact", "mc3-robust", "mc3-refined",
         "short-first"],
    )
    def test_registry_accepts_resilience(self, name):
        solver = make_solver(name, resilience=ResiliencePolicy(on_error="degrade"))
        assert solver is not None

    def test_short_first_threads_policy_to_both_phases(self):
        policy = ResiliencePolicy(on_error="degrade", fallback=("greedy",))
        solver = make_solver("short-first", resilience=policy)
        assert solver.resilience is policy

    def test_cli_default_flags_build_the_default_policy(self):
        import argparse

        from repro.cli import _resilience_policy, _solver_kwargs

        plain = argparse.Namespace(
            timeout=None, on_error="raise", max_retries=0, fallback=None
        )
        assert _resilience_policy(plain) == ResiliencePolicy()
        # The default is not forwarded, so baselines without a
        # ``resilience`` parameter still accept the default flags.
        assert "resilience" not in _solver_kwargs(plain)
        flagged = argparse.Namespace(
            timeout=1.5, on_error="degrade", max_retries=2,
            fallback=["greedy", "query-oriented"],
        )
        policy = _resilience_policy(flagged)
        assert policy.timeout_seconds == 1.5
        assert policy.on_error == "degrade"
        assert policy.max_retries == 2
        assert policy.fallback == ("greedy", "query-oriented")

    def test_engine_without_policy_reports_clean_resilience_telemetry(self):
        instance = multi_component_instance(9)
        solution, details = SolveEngine().run(instance, GeneralSolver())
        assert not isinstance(solution, PartialSolution)
        engine = details["engine"]
        assert engine["rungs"] == {PRIMARY: details["components"]}
        resilience = engine["resilience"]
        assert resilience["failures"] == 0
        assert resilience["retries"] == resilience["fallbacks"] == 0
        assert resilience["degraded_components"] == []
        assert resilience["skipped_components"] == []

    def test_chaos_error_is_repro_error(self):
        assert issubclass(ChaosError, ReproError)
        assert issubclass(ChaosWorkerCrash, ReproError)
        assert not issubclass(ReductionError, ChaosError)
