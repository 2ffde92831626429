"""Tests for the shared component-solving engine: parallel/sequential
equivalence across every registered solver, engine-level k2 routing,
telemetry structure, and the registry's parameterized factories."""

from typing import Dict, FrozenSet

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost, UniformCost
from repro.core.properties import iter_nonempty_subsets
from repro.engine import (
    EXACT_K2_ROUTE,
    SolveEngine,
    exact_k2_route,
    size_histogram,
    solve_component_k2,
)
from repro.exceptions import ReproError, SolverError
from repro.experiments.runner import sweep, with_jobs
from repro.solvers import (
    GeneralSolver,
    K2Solver,
    RefinedSolver,
    available_solvers,
    make_solver,
    solver_parameters,
    supports_parameter,
)


def multi_component_instance(
    seed: int,
    blocks: int = 3,
    queries_per_block: int = 3,
    props_per_block: int = 5,
    min_length: int = 2,
    max_length: int = 3,
    uniform: bool = False,
) -> MC3Instance:
    """An instance that provably decomposes into ``blocks`` components:
    each block draws queries from its own property namespace."""
    import random

    rng = random.Random(f"engine-test-{seed}")
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
        # Cost is a pure function of (seed, classifier), so the instance
        # is identical regardless of set-iteration order / hash seed.
        for q in sorted(block_queries, key=sorted):
            queries.append(q)
            for clf in iter_nonempty_subsets(q):
                key = (seed,) + tuple(sorted(clf))
                costs.setdefault(
                    clf, float(random.Random(repr(key)).randint(1, 20))
                )
    if uniform:
        return MC3Instance(queries, UniformCost(1.0), name=f"multi{seed}-uniform")
    return MC3Instance(queries, TableCost(costs), name=f"multi{seed}")


def instance_for(name: str, seed: int) -> MC3Instance:
    """A multi-component instance inside the solver's domain."""
    if name == "mixed":
        return multi_component_instance(seed, max_length=2, uniform=True)
    if name == "mc3-k2":
        return multi_component_instance(seed, max_length=2)
    return multi_component_instance(seed)


class TestParallelSequentialEquivalence:
    """ISSUE satellite: ``jobs=4`` must return the identical solution
    (cost and classifier set) as ``jobs=1`` for every registered solver
    on multi-component instances."""

    @pytest.mark.parametrize("name", available_solvers())
    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=4, deadline=None)
    def test_jobs4_matches_jobs1(self, name, seed):
        instance = instance_for(name, seed)
        try:
            sequential = make_solver(name, jobs=1).solve(instance)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                make_solver(name, jobs=4).solve(instance)
            return
        parallel = make_solver(name, jobs=4).solve(instance)
        assert parallel.solution.classifiers == sequential.solution.classifiers
        assert parallel.cost == sequential.cost

    def test_parallel_uses_process_pool(self):
        instance = multi_component_instance(1, blocks=4)
        result = GeneralSolver(jobs=4).solve(instance)
        engine = result.details["engine"]
        assert engine["mode"] == "process-pool"
        assert engine["jobs"] == 4

    def test_single_component_stays_sequential(self):
        instance = multi_component_instance(2, blocks=1)
        result = GeneralSolver(jobs=4).solve(instance)
        assert result.details["engine"]["mode"] == "sequential"


class TestEngineTelemetry:
    def test_structure(self):
        instance = multi_component_instance(3, blocks=3)
        result = GeneralSolver().solve(instance)
        engine = result.details["engine"]
        assert set(engine) >= {
            "jobs",
            "mode",
            "preprocess_seconds",
            "solve_seconds",
            "merge_seconds",
            "component_sizes",
            "component_seconds",
            "component_size_histogram",
            "routed",
        }
        assert len(engine["component_sizes"]) == len(engine["component_seconds"])
        assert len(engine["component_sizes"]) == result.details["components"]
        assert engine["preprocess_seconds"] >= 0.0
        assert sum(engine["component_size_histogram"].values()) == (
            result.details["components"]
        )

    def test_size_histogram_buckets(self):
        assert size_histogram([1, 1, 2, 3, 4, 5, 8, 9]) == {
            "1": 2,
            "2": 1,
            "3-4": 2,
            "5-8": 2,
            "9-16": 1,
        }
        assert size_histogram([]) == {}


class TestK2Routing:
    def test_route_matches_only_short_components(self):
        route = exact_k2_route()
        short = MC3Instance(["a b"], {"a": 1, "b": 1, "a b": 3})
        long_ = MC3Instance(["a b c"], UniformCost(1.0))
        assert route.matches(short)
        assert not route.matches(long_)

    def test_route_agrees_with_k2_solver(self):
        instance = multi_component_instance(3, max_length=2)
        k2_cost = K2Solver().solve(instance).cost
        dispatched = GeneralSolver(dispatch_k2=True).solve(instance)
        assert dispatched.details["components"] >= 2  # preprocessing left work
        assert dispatched.cost == pytest.approx(k2_cost)
        assert dispatched.details["k2_dispatched"] == (
            dispatched.details["components"]
        )
        assert dispatched.details["engine"]["routed"] == {
            EXACT_K2_ROUTE: dispatched.details["components"]
        }

    def test_solve_component_k2_handles_singletons(self):
        component = MC3Instance(["a", "a b"], {"a": 2, "b": 1, "a b": 9})
        classifiers, details = solve_component_k2(component)
        assert frozenset(("a",)) in classifiers
        assert "flow_value" in details

    def test_general_no_longer_imports_k2(self):
        """The general↔k2 circular dependency is gone: the general
        solver's module must not import the k2 solver module (k2
        dispatch goes through the engine's routing rule instead)."""
        import ast
        import inspect

        import repro.solvers.general as general_module

        tree = ast.parse(inspect.getsource(general_module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "k2" not in (node.module or ""), ast.dump(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert "k2" not in alias.name, alias.name

    def test_dispatch_k2_parallel_matches_sequential(self):
        instance = multi_component_instance(5)
        a = GeneralSolver(dispatch_k2=True, jobs=1).solve(instance)
        b = GeneralSolver(dispatch_k2=True, jobs=4).solve(instance)
        assert a.solution.classifiers == b.solution.classifiers


class TestEngineDirectly:
    def test_engine_runs_a_custom_component_solver(self):
        """The contract is structural: anything with name +
        solve_component works, no Solver subclass needed."""

        class QueryOriented:
            name = "test-qo"

            def solve_component(self, component):
                return {frozenset(q) for q in component.queries}, {}

        instance = multi_component_instance(6)
        engine = SolveEngine()
        solution, details = engine.run(instance, QueryOriented())
        solution.verify(instance)
        assert details["components"] >= 1


class TestPreprocessStepsKnob:
    """ISSUE satellite: RefinedSolver and ShortFirstSolver expose the
    same ``preprocess_steps`` knob as the other solvers, so the Figure
    3e/3f ablation can cover all solvers uniformly."""

    @pytest.mark.parametrize(
        "name",
        ["mc3-k2", "mc3-general", "exact", "mc3-robust", "mc3-refined", "short-first"],
    )
    def test_knob_exposed_and_functional(self, name):
        assert supports_parameter(name, "preprocess_steps")
        instance = instance_for(name, 7)
        with_prep = make_solver(name).solve(instance)
        without = make_solver(name, preprocess_steps=()).solve(instance)
        without.solution.verify(instance)
        # Both runs are feasible; the exact solvers stay optimal.
        if name in ("mc3-k2", "exact"):
            assert with_prep.cost == pytest.approx(without.cost)


class TestRegistryFactories:
    def test_every_solver_accepts_jobs(self):
        for name in available_solvers():
            assert supports_parameter(name, "jobs"), name

    def test_solver_parameters_lists_passthrough(self):
        params = solver_parameters("mc3-refined")
        assert "wsc_method" in params  # forwarded to GeneralSolver
        assert "max_rounds" in params

    def test_unknown_kwarg_raises_solver_error(self):
        with pytest.raises(SolverError, match="does not accept"):
            make_solver("property-oriented", dispatch_k2=True)
        with pytest.raises(SolverError, match=r"does not accept \['flow_algorithm'\]"):
            make_solver("mc3-k2", flow_algorithm="dinic")

    def test_cached_parameters_equal_the_signature(self):
        import inspect

        from repro.solvers.registry import _FACTORIES

        for name in available_solvers():
            factory = _FACTORIES[name]
            named = [
                p.name
                for p in inspect.signature(factory).parameters.values()
                if p.kind is not inspect.Parameter.VAR_KEYWORD
            ]
            if factory is RefinedSolver:
                general = inspect.signature(GeneralSolver).parameters
                named += [p for p in general if p not in named]
            assert solver_parameters(name) == named, name
            assert solver_parameters(name) == solver_parameters(name), name
            for parameter in named:
                assert supports_parameter(name, parameter), (name, parameter)
            assert not supports_parameter(name, "no_such_knob")
            message = (
                f"solver {name!r} does not accept ['no_such_knob'] "
                f"(supported parameters: {', '.join(named)})"
            )
            with pytest.raises(SolverError) as raised:
                make_solver(name, no_such_knob=1)
            assert str(raised.value) == message

    def test_sweep_with_jobs_matches_plain_sweep(self):
        instance = multi_component_instance(8)
        specs = [("general", "mc3-general", {}), ("qo", "query-oriented", {})]
        plain = sweep(instance, specs, sizes=[4, instance.n], seed=3)
        fanned = sweep(instance, specs, sizes=[4, instance.n], seed=3, jobs=2)
        assert fanned.costs == plain.costs

    def test_with_jobs_respects_explicit_spec(self):
        assert with_jobs({"jobs": 3}, 8) == {"jobs": 3}
        assert with_jobs({}, 8) == {"jobs": 8}
        assert with_jobs({}, 1) == {}
