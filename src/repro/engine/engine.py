"""The shared component-solving engine.

Every MC³ solver pipeline has the same shape (the paper's Algorithms 2
and 3 both open with "Run preprocessing procedure" and close by
composing per-component answers):

1. **preprocess** — Algorithm 1 forces/removes classifiers and splits
   the residual load into property-disjoint components;
2. **schedule** — assign each component to the default component solver
   or to the first matching :class:`~repro.engine.routing.Route`;
3. **dispatch** — solve components sequentially or across a process
   pool (``jobs``), Observation 3.2 guaranteeing independence, through
   the one executor :func:`~repro.engine.resilience.run_components`;
4. **merge** — union the per-component selections in deterministic
   component order, so ``jobs=N`` output is bit-identical to ``jobs=1``;
5. **finalize** — combine with the forced classifiers and price against
   the original instance;
6. **telemetry** — per-stage timings, per-component solve times, and a
   component-size histogram under ``details["engine"]``.

Solvers plug in through the narrow
:class:`~repro.engine.component.SolvesComponents` contract plus an
optional ``aggregate_details(outcomes)`` hook for solver-specific
details (WSC arm wins, total flow value, …).  Verification stays where
it always was — :meth:`repro.solvers.base.Solver.solve` runs the
independent coverage checker on the engine's output.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bitspace import component_fingerprint
from repro.core.instance import MC3Instance
from repro.core.solution import Solution
from repro.engine.cache import (
    CacheRunStats,
    SolutionCache,
    cache_token_of,
    decode_entry,
    encode_entry,
    resolve_cache,
)
from repro.engine.component import ComponentOutcome, SolvesComponents
from repro.engine.resilience import (
    ComponentTask,
    PartialSolution,
    ResiliencePolicy,
    run_components,
)
from repro.engine.routing import Route
from repro.engine.telemetry import EngineTelemetry
from repro.preprocess import ALL_STEPS, preprocess

# perfbench/spans.py times dispatch through this name as well.
run_components_resilient = run_components


class SolveEngine:
    """Owns the preprocess → dispatch → merge → finalize pipeline.

    Parameters
    ----------
    preprocess_steps:
        Algorithm 1 steps to run; the empty tuple disables preprocessing
        (the Figure 3c/3e/3f ablations measure exactly this difference).
    jobs:
        Worker processes for per-component dispatch.  ``1`` solves
        in-process; higher values fan components out over a process
        pool.  Output is identical either way, only wall-clock differs.
    routes:
        Engine-level routing rules tried in order before the default
        component solver (see :func:`repro.engine.routing.exact_k2_route`).
    resilience:
        The :class:`~repro.engine.resilience.ResiliencePolicy` every
        component solve runs under: per-component budgets, fallback
        chains, worker-crash recovery, and the ``on_error`` behavior —
        runs that degraded or skipped components return a
        :class:`~repro.engine.resilience.PartialSolution`.  ``None``
        (the default) means ``ResiliencePolicy()``: a failed component
        re-raises its solver's own exception.
    cache:
        Component-solution cache spec (see :mod:`repro.engine.cache`):
        a choice string (``"off"``/``"memory"``/``"disk"``), a
        :class:`~repro.engine.cache.CacheConfig`, a live
        :class:`~repro.engine.cache.SolutionCache`, or ``None`` for the
        process default (``REPRO_SOLUTION_CACHE``).  Lookups happen
        after preprocessing and routing, keyed by the canonical
        :func:`~repro.core.bitspace.component_fingerprint`; only
        clean first-attempt outcomes (already checked for coverage by
        the executor) are inserted, and runs
        with an active chaos injector bypass the cache entirely so
        injected faults always exercise the fallback machinery.
    """

    def __init__(
        self,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        jobs: int = 1,
        routes: Sequence[Route] = (),
        resilience: Optional[ResiliencePolicy] = None,
        cache: Optional[object] = None,
    ):
        self.preprocess_steps = tuple(preprocess_steps)
        self.jobs = max(1, int(jobs))
        self.routes = tuple(routes)
        self.resilience = resilience or ResiliencePolicy()
        self.cache = cache

    # ------------------------------------------------------------------

    def run(
        self, instance: MC3Instance, component_solver: SolvesComponents
    ) -> Tuple[Solution, Dict[str, object]]:
        """Execute the full pipeline; returns (solution, details)."""
        cache = resolve_cache(self.cache)
        prep = preprocess(instance, steps=self.preprocess_steps)
        tasks = self._schedule(prep.components, component_solver)

        mode = "process-pool" if self.jobs > 1 and len(tasks) >= 2 else "sequential"
        telemetry = EngineTelemetry(jobs=self.jobs, mode=mode)
        telemetry.preprocess_seconds = prep.report.elapsed_seconds

        # An active chaos injector bypasses the cache entirely: a hit
        # would skip the solve a planned fault was scheduled into, and
        # the injector's per-(rung, index, attempt) schedule must stay
        # exercised for the determinism tests to mean anything.
        cache_stats: Optional[CacheRunStats] = None
        hits: List[ComponentOutcome] = []
        pending = tasks
        fingerprints: Dict[int, str] = {}
        if cache is not None and self.resilience.chaos is None:
            cache_stats = CacheRunStats(cache.kind)
            hits, pending = self._cache_lookup(tasks, cache, cache_stats, fingerprints)

        dispatch_started = time.perf_counter()
        solved, report = run_components(pending, self.jobs, self.resilience)
        telemetry.solve_seconds = time.perf_counter() - dispatch_started
        telemetry.resilience = report.as_dict()

        if cache_stats is not None and fingerprints:
            self._cache_insert(cache, cache_stats, solved, fingerprints)

        outcomes = sorted(hits + list(solved), key=lambda outcome: outcome.index)
        if cache_stats is not None:
            telemetry.cache = cache_stats.as_dict(cache.stats())

        merge_started = time.perf_counter()
        selected = set()
        for outcome in outcomes:  # already in component index order
            # ComponentOutcome rows carry wall-clock telemetry next to
            # the classifiers; the classifier sets themselves come from
            # the deterministic kernels and set-union merging commutes.
            selected |= outcome.classifiers  # reprolint: sanitize
            bitspace = outcome.details.get("bitspace")
            gap = outcome.details.get("gap")
            telemetry.record_component(
                outcome.size,
                outcome.seconds,
                outcome.route,
                outcome.rung,
                bitspace if isinstance(bitspace, dict) else None,
                gap=gap if isinstance(gap, dict) else None,
                lower_bound=outcome.details.get("lower_bound"),
                certified=outcome.details.get("certified") is True,
            )
        solution = prep.finalize(selected)
        telemetry.forced_cost = prep.base_cost
        telemetry.solution_cost = solution.cost
        if not report.clean:
            solution = PartialSolution(
                solution.classifiers,
                solution.cost,
                failures=report.failures,
                uncovered_queries=report.uncovered_queries,
                degraded_components=sorted(report.degraded),
                skipped_components=sorted(report.skipped),
            )
        telemetry.merge_seconds = time.perf_counter() - merge_started

        details: Dict[str, object] = {
            "preprocess": prep.report.as_dict(),
            "components": len(prep.components),
        }
        details.update(self._aggregate(component_solver, outcomes))
        details["engine"] = telemetry.as_dict()
        return solution, details

    # ------------------------------------------------------------------

    def _schedule(
        self,
        components: Iterable[MC3Instance],
        component_solver: SolvesComponents,
    ) -> List[ComponentTask]:
        """Assign each component to the first matching route, else the
        default solver."""
        tasks: List[ComponentTask] = []
        for index, component in enumerate(components):
            target: SolvesComponents = component_solver
            route_name: Optional[str] = None
            for route in self.routes:
                if route.matches(component):
                    target = route
                    route_name = route.name
                    break
            tasks.append((index, target, component, route_name))
        return tasks

    # ------------------------------------------------------------------
    # Content-addressed component-solution cache (see repro.engine.cache)
    # ------------------------------------------------------------------

    def _cache_lookup(
        self,
        tasks: List[ComponentTask],
        cache: SolutionCache,
        stats: CacheRunStats,
        fingerprints: Dict[int, str],
    ) -> Tuple[List[ComponentOutcome], List[ComponentTask]]:
        """Split tasks into cache-hit outcomes and still-pending tasks.

        A task is cacheable only when its dispatch target exposes a
        cache token (every in-repo solver and route does; custom
        ``SolvesComponents`` objects do not and are never cached).  The
        fingerprint pins the *primary* rung slot — a hit stands in for
        the primary solver's clean answer, so the hit outcome carries
        the primary rung name exactly as an uncached clean run would.
        """
        hit_outcomes: List[ComponentOutcome] = []
        pending: List[ComponentTask] = []
        for task in tasks:
            index, target, component, route_name = task
            token = cache_token_of(target)
            if token is None:
                stats.uncacheable += 1
                pending.append(task)
                continue
            started = time.perf_counter()
            fingerprint = component_fingerprint(
                component,
                solver_token=token,
                route=route_name,
            )
            blob = cache.get(fingerprint)
            decoded = decode_entry(blob, fingerprint) if blob is not None else None
            if blob is not None and decoded is None:
                # The stored bytes are corrupt (damaged file, foreign
                # entry version): evict them so the store stops
                # re-reading and re-failing the same entry — and stops
                # charging it against the byte budget — on every lookup.
                invalidate = getattr(cache, "invalidate", None)
                if invalidate is not None:
                    invalidate(fingerprint)
            elapsed = time.perf_counter() - started
            stats.lookup_seconds += elapsed
            if decoded is None:
                stats.misses += 1
                fingerprints[index] = fingerprint
                pending.append(task)
                continue
            stats.hits += 1
            classifiers, details = decoded
            hit_outcomes.append(
                ComponentOutcome(
                    index,
                    classifiers,
                    details,
                    elapsed,
                    component.n,
                    route_name,
                    rung=target.name,
                )
            )
        return hit_outcomes, pending

    def _cache_insert(
        self,
        cache: SolutionCache,
        stats: CacheRunStats,
        solved: List[ComponentOutcome],
        fingerprints: Dict[int, str],
    ) -> None:
        """Insert clean first-attempt outcomes only.

        An outcome that took more than one attempt — a retry, a
        fallback rung, a degraded or skipped component — is never
        inserted: a cached entry must be indistinguishable from a clean
        first-attempt primary solve, whose coverage the executor has
        already checked.  Outcomes whose details do not serialize are
        skipped rather than cached lossily.
        """
        for outcome in solved:
            fingerprint = fingerprints.get(outcome.index)
            if fingerprint is None or outcome.attempts > 1:
                continue
            started = time.perf_counter()
            blob = encode_entry(fingerprint, outcome.classifiers, outcome.details)
            if blob is not None and cache.put(fingerprint, blob):
                stats.inserts += 1
            else:
                stats.insert_skips += 1
            stats.insert_seconds += time.perf_counter() - started

    @staticmethod
    def _aggregate(
        component_solver: SolvesComponents, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        aggregate = getattr(component_solver, "aggregate_details", None)
        if aggregate is None:
            return {}
        return aggregate(outcomes)
