"""Algorithm 3: the approximation solver for the general MC³ problem.

Pipeline per the paper: preprocessing (Algorithm 1) → reduction to
Weighted Set Cover (Section 5.2) → run *both* the greedy
``(ln Δ + 1)``-approximation and an ``f``-approximation, keep the
cheaper output.  Combined guarantee:
``min{ln I + ln(k-1) + 1, 2^(k-1)}`` (Theorem 5.3).

The ``f``-approximation is LP rounding when the constraint matrix is
small enough for SciPy's HiGHS backend, and the primal–dual scheme
(identical guarantee, linear time) beyond that threshold.  It is skipped
on components where greedy's cover is proven optimal, since it could
only tie (:mod:`repro.setcover.best_of`).  Every best-of component
reports a lower bound on its optimum.

Preprocessing, per-component dispatch (optionally across a process
pool), merging, and the exact k ≤ 2 component routing all live in the
shared engine — this module contributes only the per-component WSC
solve.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.engine.cache import DETAILS_VERSION
from repro.engine.component import ComponentOutcome
from repro.engine.resilience import ResiliencePolicy
from repro.engine.routing import EXACT_K2_ROUTE, Route, exact_k2_route
from repro.preprocess import ALL_STEPS
from repro.reductions import mc3_to_wsc
from repro.setcover import (
    DEFAULT_SIZE_LIMIT,
    best_of_wsc,
    f_approximation_wsc,
    greedy_wsc,
    lp_rounding_wsc,
    primal_dual_wsc,
)
from repro.solvers.base import ComponentSolver


class GeneralSolver(ComponentSolver):
    """Approximation solver for arbitrary query lengths (``MC3[G]``).

    Parameters
    ----------
    wsc_method:
        ``"best_of"`` (paper's Algorithm 3: greedy + f-approximation,
        keep the cheaper), or ``"greedy"`` / ``"lp"`` / ``"primal_dual"``
        alone — the latter three power the WSC ablation bench.
    lp_size_limit:
        Constraint-matrix nonzero budget above which ``best_of``/
        ``lp`` fall back to primal–dual.  ``None`` removes the cap.
    preprocess_steps:
        Algorithm 1 steps to run first; empty disables preprocessing
        (Figures 3e/3f measure exactly this difference).
    prune:
        Apply the redundancy post-pass to the f-approximation output
        (extension beyond the paper; can only lower the cost).
    dispatch_k2:
        Enable the engine's :func:`~repro.engine.routing.exact_k2_route`:
        property-disjoint components whose queries all have length ≤ 2
        are solved with the *exact* max-flow path instead of the WSC
        approximation (extension beyond the paper).  Because components
        share no properties, composing per-component optima is exact
        (Observation 3.2), so this can only improve the output — it
        subsumes Short-First's idea at the component level without its
        cross-interaction loss.
    jobs:
        Worker processes for solving components in parallel; output is
        identical to ``jobs=1``, only wall-clock differs.
    """

    name = "mc3-general"

    def __init__(
        self,
        wsc_method: str = "best_of",
        lp_size_limit: Optional[int] = DEFAULT_SIZE_LIMIT,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        prune: bool = False,
        dispatch_k2: bool = False,
        jobs: int = 1,
        verify: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        cache: Optional[object] = None,
    ):
        super().__init__(
            preprocess_steps=preprocess_steps,
            jobs=jobs,
            verify=verify,
            resilience=resilience,
            cache=cache,
        )
        self.wsc_method = wsc_method
        self.lp_size_limit = lp_size_limit
        self.prune = prune
        self.dispatch_k2 = dispatch_k2

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        # ``dispatch_k2`` is deliberately absent: routed components carry
        # the route's own token, and unrouted ones solve identically
        # whether the route was offered or not.
        return (
            self.name,
            DETAILS_VERSION,
            self.wsc_method,
            self.lp_size_limit,
            self.prune,
        )

    def routes(self) -> Tuple[Route, ...]:
        return (exact_k2_route(),) if self.dispatch_k2 else ()

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        # One interning per component: the reduction and every WSC pass
        # below share the same mask space (the engine's component
        # boundary keeps it as narrow as the component's property count).
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)

        # The arms are passed by this module's names so that
        # perfbench/spans.py, which wraps those names, times each arm.
        arms = {"lp": lp_rounding_wsc, "primal_dual": primal_dual_wsc}
        winner: Optional[str] = None
        f_mode: Optional[str] = None
        certified = False
        if self.wsc_method == "greedy":
            wsc_solution = greedy_wsc(wsc)
        elif self.wsc_method == "bucket_greedy":
            from repro.setcover import bucket_greedy_wsc

            wsc_solution = bucket_greedy_wsc(wsc)
        elif self.wsc_method == "lp":
            wsc_solution, f_mode = f_approximation_wsc(
                wsc, self.lp_size_limit, self.prune, **arms
            )
        elif self.wsc_method == "primal_dual":
            wsc_solution = primal_dual_wsc(wsc, prune=self.prune)
            f_mode = "primal_dual"
        else:  # "best_of" — Algorithm 3 lines 3-5
            best = best_of_wsc(
                wsc, self.lp_size_limit, self.prune, greedy=greedy_wsc, **arms
            )
            wsc_solution, winner, f_mode, certified = best

        classifiers = {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}
        details: Dict[str, object] = {
            "winner": winner,
            "f_mode": f_mode,
            "lower_bound": wsc_solution.lower_bound,
            "certified": certified,
            "bitspace": {
                "properties": space.size,
                "elements": wsc.universe_size,
                "sets": wsc.num_sets,
            },
        }
        return classifiers, details

    def aggregate_details(
        self, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        wins = {"greedy": 0, "f_approx": 0}
        f_mode_used = set()
        k2_dispatched = 0
        for outcome in outcomes:
            if outcome.route == EXACT_K2_ROUTE:
                k2_dispatched += 1
                continue
            winner = outcome.details.get("winner")
            if winner:
                wins[winner] += 1
            f_mode = outcome.details.get("f_mode")
            if f_mode:
                f_mode_used.add(f_mode)
        return {
            "wsc_method": self.wsc_method,
            "wins": wins,
            "f_approximation_modes": sorted(f_mode_used),
            "k2_dispatched": k2_dispatched,
        }
