"""Algorithm 2: the exact polynomial solver for k ≤ 2.

Pipeline per the paper: preprocessing (Algorithm 1) → reduction to
bipartite Weighted Vertex Cover (Theorem 4.1) → reduction to Max-Flow
(Theorem 2.3) → Dinic's max-flow algorithm (the paper's choice) →
translation back to classifiers.

The solution is *optimal*: preprocessing preserves an optimal solution
and the two reductions are exact.  The pipeline itself (preprocess →
per-component dispatch → merge) is owned by the shared engine; this
module contributes only the per-component algorithm, which lives in
:func:`repro.engine.routing.solve_component_k2` so the engine can also
route short components here from approximate solvers (``dispatch_k2``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.engine.cache import DETAILS_VERSION
from repro.engine.component import ComponentOutcome
from repro.engine.routing import solve_component_k2
from repro.exceptions import ReductionError
from repro.solvers.base import ComponentSolver


class K2Solver(ComponentSolver):
    """Exact MC³ solver for instances with maximal query length ≤ 2.

    Parameters
    ----------
    preprocess_steps:
        Which Algorithm 1 steps to run first; the empty tuple disables
        preprocessing entirely (used by the Figure 3c ablation) — the
        result is still optimal, just slower.
    jobs:
        Worker processes for solving components in parallel (the
        decomposition of Algorithm 1 step 2 makes them independent).
    """

    name = "mc3-k2"

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        return (self.name, DETAILS_VERSION)

    def validate_instance(self, instance: MC3Instance) -> None:
        if instance.max_query_length > 2:
            raise ReductionError(
                f"K2Solver requires k <= 2, instance has k = {instance.max_query_length}"
            )

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        return solve_component_k2(component)

    def aggregate_details(
        self, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        return {
            "flow_value": sum(
                float(outcome.details.get("flow_value", 0.0)) for outcome in outcomes
            ),
        }
