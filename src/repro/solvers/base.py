"""Common solver interfaces.

A :class:`Solver` takes an :class:`~repro.core.instance.MC3Instance` and
produces a :class:`~repro.core.solution.SolverResult`.  The base class
handles timing and (by default) independent feasibility verification of
every output, so a buggy solver fails loudly instead of reporting a
bogus cost.

:class:`ComponentSolver` narrows the contract further for solvers whose
pipeline is the paper's standard shape — preprocess, solve each
property-disjoint component, merge.  Such solvers implement only
``solve_component``; the shared :class:`~repro.engine.SolveEngine` owns
preprocessing, scheduling, (optionally parallel) dispatch, deterministic
merging, and per-stage telemetry.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.core.solution import Solution, SolverResult
from repro.engine.component import ComponentOutcome
from repro.engine.engine import SolveEngine
from repro.engine.resilience import ResiliencePolicy
from repro.engine.routing import Route
from repro.preprocess import ALL_STEPS


class Solver(ABC):
    """Base class for MC³ solvers.

    Parameters
    ----------
    verify:
        Run the independent coverage checker on every output (default).
    jobs:
        Advisory worker-process budget for per-component parallelism.
        Solvers built on the shared engine honour it; solvers without a
        component decomposition (the baselines) accept and ignore it, so
        harnesses can pass ``jobs=`` uniformly to any registered solver.
    cache:
        Component-solution cache spec (see :mod:`repro.engine.cache`): a
        choice string (``"off"``/``"memory"``/``"disk"``), a
        :class:`~repro.engine.cache.CacheConfig`, a live cache, or
        ``None`` for the process default (``REPRO_SOLUTION_CACHE``).
        Engine-based solvers thread it into the pipeline; solvers
        without a component decomposition accept and ignore it, so
        harnesses can pass ``cache=`` uniformly (same convention as
        ``jobs``).
    """

    #: Short identifier used by the registry and experiment reports.
    name: str = "solver"

    def __init__(
        self,
        verify: bool = True,
        jobs: int = 1,
        cache: Optional[object] = None,
    ):
        self.verify = verify
        self.jobs = max(1, int(jobs))
        self.cache = cache

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        """Flat tuple of scalars naming every output-affecting knob, or
        ``None`` for "never cache my components".

        The base implementation returns ``None`` deliberately: a solver
        must *opt in* by enumerating its knobs, because a token that
        silently misses one would serve stale answers when that knob
        changes.  Stateless solvers whose only identity is their name
        can return ``(self.name,)``.
        """
        return None

    def solve(self, instance: MC3Instance) -> SolverResult:
        """Solve the instance; timed and (optionally) verified."""
        started = time.perf_counter()
        solution, details = self._solve(instance)
        elapsed = time.perf_counter() - started
        if self.verify:
            solution.verify(instance)
        return SolverResult(solution, self.name, elapsed, details)

    @abstractmethod
    def _solve(self, instance: MC3Instance) -> "tuple[Solution, Dict[str, object]]":
        """Produce a solution and a free-form details dict."""


class ComponentSolver(Solver):
    """A solver that delegates its pipeline to the shared engine.

    Subclasses implement :meth:`solve_component` (the per-component
    algorithm) and may override :meth:`routes` (engine-level dispatch
    rules such as :func:`~repro.engine.routing.exact_k2_route`),
    :meth:`aggregate_details` (fold per-component details into the
    result's details dict), and :meth:`validate_instance` (domain checks
    that must run before preprocessing).

    ``resilience`` (a :class:`~repro.engine.ResiliencePolicy`, default
    ``None``) activates the engine's fault-tolerant execution layer —
    per-component budgets, fallback chains, and the ``on_error``
    behavior.  Runs that degrade or skip components return a
    :class:`~repro.engine.PartialSolution`, whose ``verify`` knows to
    exclude the recorded uncovered queries from the coverage check.
    """

    def __init__(
        self,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        jobs: int = 1,
        verify: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        cache: Optional[object] = None,
    ):
        super().__init__(verify=verify, jobs=jobs, cache=cache)
        self.preprocess_steps = tuple(preprocess_steps)
        self.resilience = resilience

    # -- the narrow contract -------------------------------------------

    @abstractmethod
    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        """Solve one property-disjoint component; return the selected
        classifiers and a per-component details dict."""

    # -- optional hooks ------------------------------------------------

    def routes(self) -> Tuple[Route, ...]:
        """Engine routing rules tried before :meth:`solve_component`."""
        return ()

    def aggregate_details(
        self, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        """Fold per-component details into solver-level details."""
        return {}

    def validate_instance(self, instance: MC3Instance) -> None:
        """Reject instances outside the solver's domain (before any
        preprocessing work is spent)."""

    # -- pipeline ------------------------------------------------------

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        self.validate_instance(instance)
        engine = SolveEngine(
            preprocess_steps=self.preprocess_steps,
            jobs=self.jobs,
            routes=self.routes(),
            resilience=self.resilience,
            cache=self.cache,
        )
        return engine.run(instance, self)
