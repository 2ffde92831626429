"""Experiment runner: subset sweeps of a dataset across solvers.

Section 6.1: "for each inspected dataset, along with running the
experiments on its entire query load, we also randomly select subsets of
this query set of different cardinalities and run the algorithms over
these corresponding sub-instances."  The runner fixes one random
permutation per (dataset, seed) and takes prefixes, so sweeps are nested
(a 2000-query subset contains the 1000-query one) and deterministic.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.instance import MC3Instance
from repro.core.solution import SolverResult
from repro.exceptions import SolverError
from repro.solvers import Solver, make_solver


def subset_order(n: int, seed: int) -> List[int]:
    """A deterministic random permutation of query indices."""
    order = list(range(n))
    random.Random(f"subset-order-{seed}").shuffle(order)
    return order


class SweepResult:
    """Costs and runtimes per (solver, subset size)."""

    def __init__(self, dataset_name: str, sizes: Sequence[int]):
        self.dataset_name = dataset_name
        self.sizes = list(sizes)
        self.costs: Dict[str, Dict[int, float]] = {}
        self.times: Dict[str, Dict[int, float]] = {}
        self.failures: Dict[str, Dict[int, str]] = {}
        # Component-cache hit rate per cell (only cells whose solver ran
        # with a cache record one) — sweeps over nested subset prefixes
        # re-solve shared components, so this shows how much the sweep
        # amortized.
        self.cache_hit_rates: Dict[str, Dict[int, float]] = {}

    def record(self, solver_label: str, size: int, result: SolverResult) -> None:
        self.costs.setdefault(solver_label, {})[size] = result.cost
        self.times.setdefault(solver_label, {})[size] = result.elapsed_seconds
        hit_rate = cache_hit_rate(result.details)
        if hit_rate is not None:
            self.cache_hit_rates.setdefault(solver_label, {})[size] = hit_rate

    def record_failure(self, solver_label: str, size: int, message: str) -> None:
        self.failures.setdefault(solver_label, {})[size] = message

    def cost_points(self, solver_label: str) -> List[Tuple[float, float]]:
        data = self.costs.get(solver_label, {})
        return [(size, data[size]) for size in self.sizes if size in data]

    def time_points(self, solver_label: str) -> List[Tuple[float, float]]:
        data = self.times.get(solver_label, {})
        return [(size, data[size]) for size in self.sizes if size in data]

    def cache_hit_points(self, solver_label: str) -> List[Tuple[float, float]]:
        data = self.cache_hit_rates.get(solver_label, {})
        return [(size, data[size]) for size in self.sizes if size in data]


def cache_hit_rate(details: Dict[str, object]) -> Optional[float]:
    """The engine's cache hit rate from a result's details, if any."""
    engine = details.get("engine")
    if not isinstance(engine, dict):
        return None
    cache = engine.get("cache")
    if not isinstance(cache, dict):
        return None
    rate = cache.get("hit_rate")
    return float(rate) if isinstance(rate, (int, float)) else None


SolverSpec = Tuple[str, str, Dict[str, object]]
"""(display label, registry name, constructor kwargs)."""


def with_jobs(kwargs: Dict[str, object], jobs: int) -> Dict[str, object]:
    """Inject a per-solve component-parallelism budget into a spec's
    constructor kwargs.  An explicit ``jobs`` in the spec wins, so a
    sweep can pin individual solvers while defaulting the rest."""
    if jobs == 1 or "jobs" in kwargs:
        return dict(kwargs)
    merged = dict(kwargs)
    merged["jobs"] = jobs
    return merged


def with_cache(kwargs: Dict[str, object], cache: object) -> Dict[str, object]:
    """Inject a component-cache spec into a spec's constructor kwargs
    (same precedence convention as :func:`with_jobs`: an explicit
    ``cache`` in the spec wins)."""
    if cache is None or "cache" in kwargs:
        return dict(kwargs)
    merged = dict(kwargs)
    merged["cache"] = cache
    return merged


def sweep(
    instance: MC3Instance,
    solvers: Sequence[SolverSpec],
    sizes: Sequence[int],
    seed: int = 0,
    allow_failures: bool = False,
    jobs: int = 1,
    cache: object = None,
) -> SweepResult:
    """Run each solver over random prefixes of the query load.

    Sizes exceeding the load are clamped to the full load (and
    deduplicated).  ``allow_failures=True`` records solver errors (e.g.
    Mixed on non-uniform costs) instead of propagating them.  ``jobs``
    is handed to every solver for engine-level component parallelism —
    solutions are unchanged, only wall-clock differs.  ``cache`` (a
    :mod:`repro.engine.cache` spec) is handed to every solver that
    accepts it; nested prefixes share components, so later subset sizes
    hit the earlier sizes' cached solutions.
    """
    clamped: List[int] = []
    for size in sizes:
        value = min(int(size), instance.n)
        if value >= 1 and value not in clamped:
            clamped.append(value)
    order = subset_order(instance.n, seed)
    result = SweepResult(instance.name, clamped)
    for size in clamped:
        sub = instance.subset(size, order=order)
        for label, name, kwargs in solvers:
            solver = make_solver(name, **with_cache(with_jobs(kwargs, jobs), cache))
            try:
                result.record(label, size, solver.solve(sub))
            except SolverError as exc:
                if not allow_failures:
                    raise
                result.record_failure(label, size, str(exc))
    return result


def time_solver(
    factory: Callable[[], Solver], instance: MC3Instance
) -> SolverResult:
    """Build and run a solver once (pre-construction outside the clock is
    unnecessary — constructors are trivial — but the helper keeps the
    call sites uniform)."""
    return factory().solve(instance)
