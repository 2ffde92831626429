"""Exact MC³ solver (test oracle and small-instance tool).

Preprocessing (optimality-preserving) → per-component reduction to WSC →
exact LP branch-and-bound (:func:`repro.setcover.exact_wsc`).
Exponential worst case — the general problem is NP-hard (Theorem 5.1) —
so a node limit guards against runaway searches.
The preprocess/dispatch/merge pipeline is the shared engine's; only the
per-component exact WSC solve lives here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.engine.cache import DETAILS_VERSION
from repro.engine.resilience import ResiliencePolicy
from repro.preprocess import ALL_STEPS
from repro.reductions import mc3_to_wsc
from repro.setcover import DEFAULT_NODE_LIMIT, exact_wsc
from repro.solvers.base import ComponentSolver


class ExactSolver(ComponentSolver):
    """Optimal MC³ solutions via exact WSC branch-and-bound.

    ``node_limit`` caps the LP branch-and-bound nodes of each
    component's search; past it the solve raises :class:`SolverError`.
    """

    name = "exact"

    def __init__(
        self,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        node_limit: int = DEFAULT_NODE_LIMIT,
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
        self.node_limit = node_limit

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        # ``node_limit`` matters: a search that hits the limit raises,
        # so a cached entry proves the limit was generous enough — but a
        # *smaller* limit must not be served a bigger limit's answer, or
        # the limit stops being reproducible.
        return (self.name, DETAILS_VERSION, self.node_limit)

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        wsc_solution = exact_wsc(wsc, node_limit=self.node_limit)
        classifiers = {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}
        bitspace = {
            "properties": space.size,
            "elements": wsc.universe_size,
            "sets": wsc.num_sets,
        }
        # The optimum is its own lower bound.
        return classifiers, {"lower_bound": wsc_solution.cost, "bitspace": bitspace}
