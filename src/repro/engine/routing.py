"""Engine-level component routing.

A :class:`Route` pairs a predicate over components with a dedicated
component solver: when the predicate matches, the engine dispatches the
component to the route instead of the default solver.  Routing happens
*after* preprocessing, so rules see the residual sub-instances — the
level at which specialisation is lossless (components share no
properties, so composing per-component optima is exact, Observation
3.2).

The one built-in rule is :func:`exact_k2_route`: components whose queries
all have length ≤ 2 are solved *exactly* through the Theorem 4.1
reduction chain (bipartite WVC → max-flow) instead of the WSC
approximation.  This used to live inside ``GeneralSolver`` (as the
``dispatch_k2`` special case, with a local import of ``K2Solver`` to
dodge a circular dependency); hoisting it into the engine makes it
available to every approximate solver and removes the cycle — the k ≤ 2
per-component algorithm itself lives here, below the solver layer, and
``K2Solver`` reuses it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.costs import OverlayCost
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier, Query
from repro.engine.cache import DETAILS_VERSION
from repro.exceptions import UncoverableQueryError
from repro.reductions import mc3_to_bipartite_wvc, solve_bipartite_wvc


def solve_component_k2(
    component: MC3Instance,
) -> Tuple[Set[Classifier], Dict[str, object]]:
    """Solve one property-disjoint component with k ≤ 2 exactly.

    The Theorem 4.1 chain: bipartite Weighted Vertex Cover → max-flow →
    translation back to classifiers.  Singleton queries may be present
    when preprocessing step 1 was disabled; their classifiers are forced
    here so the WVC reduction receives only length-2 queries, keeping
    the no-preprocessing mode correct.  The answer is optimal, so its
    cost is reported as the component's ``lower_bound``.
    """
    forced: Set[Classifier] = set()
    length_two: List[Query] = []
    for q in component.queries:
        if len(q) == 1:
            if not math.isfinite(component.weight(q)):
                raise UncoverableQueryError(q)
            forced.add(q)
        else:
            length_two.append(q)
    if not length_two:
        return forced, {"flow_value": 0.0, "lower_bound": component.total_weight(forced)}
    cost = component.cost
    if forced:
        # Forced singletons are already paid for; the WVC must see them
        # as free or it may buy a pair classifier redundantly.
        overlay = OverlayCost(cost)
        # RPL101 suppressed below: overlay.select is commutative — zeroing
        # weights in any order yields the same overlay.
        for clf in forced:  # reprolint: ignore[RPL101]
            overlay.select(clf)
        cost = overlay
    graph = mc3_to_bipartite_wvc(length_two, cost)
    cover, flow_value = solve_bipartite_wvc(graph)
    chosen = forced | cover
    return chosen, {"flow_value": flow_value, "lower_bound": component.total_weight(chosen)}


class Route:
    """A (predicate, component solver) routing rule.

    ``matches`` decides per component; the route's ``solve_component``
    satisfies the same contract as a solver's, so the executor treats
    routed and default work identically.  Routes must be picklable for
    process-pool dispatch.

    ``cache_token`` is the route's contribution to the
    component-solution cache key (see :mod:`repro.engine.cache`): a flat
    tuple of scalars naming every output-affecting knob of the routed
    algorithm.  ``None`` (the default) marks the route's components as
    uncacheable — the safe choice for a bespoke route whose knobs the
    token would miss.
    """

    __slots__ = ("name", "_predicate", "_solve", "cache_token")

    def __init__(
        self,
        name: str,
        predicate: Callable[[MC3Instance], bool],
        solve: Callable[[MC3Instance], Tuple[Set[Classifier], Dict[str, object]]],
        cache_token: Optional[Tuple[object, ...]] = None,
    ):
        self.name = name
        self._predicate = predicate
        self._solve = solve
        self.cache_token = None if cache_token is None else tuple(cache_token)

    def matches(self, component: MC3Instance) -> bool:
        return self._predicate(component)

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        return self._solve(component)


class _IsK2Component:
    """Picklable predicate: every query in the component has length ≤ 2."""

    def __call__(self, component: MC3Instance) -> bool:
        return component.max_query_length <= 2


#: Route name used in telemetry and details aggregation.
EXACT_K2_ROUTE = "exact-k2"


def exact_k2_route() -> Route:
    """The k ≤ 2 exact-dispatch rule (``dispatch_k2`` hoisted engine-level).

    Because the routed components are solved optimally and components
    interact with nothing outside themselves, enabling this route can
    only improve an approximate solver's output — it subsumes
    Short-First's idea at the component level without its
    cross-interaction loss.
    """
    return Route(
        EXACT_K2_ROUTE,
        _IsK2Component(),
        solve_component_k2,
        cache_token=("route", EXACT_K2_ROUTE, DETAILS_VERSION),
    )
