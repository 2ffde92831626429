"""Robust (r-redundant) classifier construction.

Trained classifiers can fail post-deployment — drift, a bad labelling
batch, a retired model.  The robust variant demands every (property,
query) element of the WSC reduction be covered by ``r`` *distinct*
classifiers.  The payoff is a clean guarantee: with element-level
redundancy ``r``, any ``r - 1`` classifiers can be removed and every
query remains covered (each lost classifier removes at most one of an
element's covers, and a query is covered whenever each of its elements
retains one).

The paper's related work points to Set MultiCover for exactly this kind
of model extension; the reduction of Section 5.2 carries over verbatim,
only the element demands change.  The preprocess/dispatch/merge
pipeline is the shared engine's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.core.solution import Solution
from repro.engine.component import ComponentOutcome
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import SolverError, UncoverableQueryError
from repro.reductions import mc3_to_wsc
from repro.setcover.multicover import greedy_multicover
from repro.solvers.base import ComponentSolver


class RobustSolver(ComponentSolver):
    """Approximate r-redundant MC³ via greedy set multi-cover.

    Parameters
    ----------
    redundancy:
        Required distinct covers per element (1 = the standard problem).
    preprocess_steps:
        Algorithm 1 steps.  Note step 3 is *disabled by default* here:
        removing a dominated classifier shrinks the pool redundancy
        draws from, and forced selections count only once toward ``r``.
        Steps 1 and 2 (forced singletons, decomposition) remain safe.
    jobs:
        Worker processes for solving components in parallel.

    The engine's exact k ≤ 2 route is deliberately *not* offered here:
    the max-flow path solves the r = 1 problem and would silently drop
    the redundancy requirement on routed components.
    """

    name = "mc3-robust"

    def __init__(
        self,
        redundancy: int = 2,
        preprocess_steps: Sequence[int] = (2,),
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
        if redundancy < 1:
            raise SolverError("redundancy must be >= 1")
        self.redundancy = int(redundancy)

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        return (self.name, self.redundancy)

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        demands = []
        for element_id in range(wsc.universe_size):
            available = len(wsc.sets_containing(element_id))
            if available < self.redundancy:
                prop, query_index = wsc.element_label(element_id)
                raise UncoverableQueryError(
                    component.queries[query_index],
                    f"property {prop!r} of query "
                    f"{sorted(component.queries[query_index])!r} has only "
                    f"{available} candidate classifiers "
                    f"(< redundancy {self.redundancy})",
                )
            demands.append(self.redundancy)
        solution = greedy_multicover(wsc, demands)
        classifiers = {wsc.set_label(set_id) for set_id in solution.set_ids}
        bitspace = {
            "properties": space.size,
            "elements": wsc.universe_size,
            "sets": wsc.num_sets,
        }
        return classifiers, {"bitspace": bitspace}

    def aggregate_details(
        self, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        return {"redundancy": self.redundancy}


def survives_failures(
    instance: MC3Instance, solution: Solution, failures: int
) -> bool:
    """Whether coverage survives the loss of any ``failures`` classifiers.

    Checks the sufficient element-level condition exhaustively for
    single failures and by the redundancy argument beyond — used by
    tests; exponential in ``failures`` otherwise, so it brute-forces
    only ``failures = 1``.
    """
    from itertools import combinations

    from repro.core.coverage import CoverageChecker

    checker = CoverageChecker(instance.queries)
    if failures <= 0:
        return checker.all_covered(solution.classifiers)
    if failures > 1:
        raise SolverError("survives_failures brute-forces single failures only")
    for lost in combinations(solution.classifiers, failures):
        remaining = set(solution.classifiers) - set(lost)
        if not checker.all_covered(remaining):
            return False
    return True
