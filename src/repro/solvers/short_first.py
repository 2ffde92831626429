"""The Short-First strategy (Section 4, "Almost k = 2").

When nearly all queries have length ≤ 2, first solve those *optimally*
with Algorithm 2, then hand the residual long queries to Algorithm 3
with the already-bought classifiers marked free.  On loads like the
fashion category (96% short) the paper reports this beats running
Algorithm 3 on everything.

Both phases run on the shared engine (via :class:`K2Solver` and
:class:`GeneralSolver`), so the ``preprocess_steps`` / ``jobs`` /
``dispatch_k2`` knobs apply to each phase uniformly.  The split itself
stays *above* the engine: it partitions by query length before any
preprocessing, which is a different axis than the engine's
property-disjoint component routing.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.costs import OverlayCost
from repro.core.instance import MC3Instance
from repro.core.solution import Solution
from repro.engine.resilience import ResiliencePolicy
from repro.preprocess import ALL_STEPS
from repro.setcover import DEFAULT_SIZE_LIMIT
from repro.solvers.base import Solver
from repro.solvers.general import GeneralSolver
from repro.solvers.k2 import K2Solver


class ShortFirstSolver(Solver):
    """Algorithm 2 on queries of length ≤ ``threshold`` (default 2), then
    Algorithm 3 on the rest with prior selections free."""

    name = "short-first"

    def __init__(
        self,
        threshold: int = 2,
        wsc_method: str = "best_of",
        lp_size_limit: Optional[int] = DEFAULT_SIZE_LIMIT,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        dispatch_k2: bool = False,
        jobs: int = 1,
        verify: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        cache: Optional[object] = None,
    ):
        super().__init__(verify=verify, jobs=jobs, cache=cache)
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.wsc_method = wsc_method
        self.lp_size_limit = lp_size_limit
        self.preprocess_steps = tuple(preprocess_steps)
        self.dispatch_k2 = dispatch_k2
        self.resilience = resilience

    def _solve(self, instance: MC3Instance) -> Tuple[Solution, Dict[str, object]]:
        short, long_ = instance.split_by_length(self.threshold)
        details: Dict[str, object] = {"threshold": self.threshold}

        selected: Set = set()
        if short is not None:
            k2 = K2Solver(
                preprocess_steps=self.preprocess_steps,
                jobs=self.jobs,
                verify=False,  # the combined solution is verified once
                resilience=self.resilience,
                cache=self.cache,
            )
            short_result = k2.solve(short)
            selected |= short_result.solution.classifiers
            details["short_queries"] = short.n
            details["short_cost"] = short_result.cost

        if long_ is not None:
            # Classifiers bought for the short phase are free now.
            overlay = OverlayCost(instance.cost)
            # RPL101 suppressed below: overlay.select commutes.
            for clf in selected:  # reprolint: ignore[RPL101]
                overlay.select(clf)
            residual = long_.with_cost(overlay, name=f"{instance.name}|residual")
            general = GeneralSolver(
                wsc_method=self.wsc_method,
                lp_size_limit=self.lp_size_limit,
                preprocess_steps=self.preprocess_steps,
                dispatch_k2=self.dispatch_k2,
                jobs=self.jobs,
                verify=False,
                resilience=self.resilience,
                cache=self.cache,
            )
            long_result = general.solve(residual)
            selected |= long_result.solution.classifiers
            details["long_queries"] = long_.n
            details["long_incremental_cost"] = long_result.cost

        solution = Solution.from_instance(selected, instance)
        return solution, details
