"""Engine-level component routing.

A :class:`Route` pairs a predicate over components with a dedicated
component solver: when the predicate matches, the engine dispatches the
component to the route instead of the default solver.  Routing happens
*after* preprocessing, so rules see the residual sub-instances — the
level at which specialisation is lossless (components share no
properties, so composing per-component optima is exact, Observation
3.2).

The flagship rule is :func:`exact_k2_route`: components whose queries
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
from repro.core.properties import Classifier, Query, classifier_sort_key
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
        return forced, {"flow_value": 0.0, "lower_bound": _cost(component, forced)}
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
    return chosen, {"flow_value": flow_value, "lower_bound": _cost(component, chosen)}


def _cost(component: MC3Instance, classifiers: Set[Classifier]) -> float:
    """The component's price of ``classifiers``, summed in canonical order."""
    return sum(
        component.weight(clf) for clf in sorted(classifiers, key=classifier_sort_key)
    )


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


class _IsLargeComponent:
    """Picklable predicate: the component has at least ``min_queries``
    residual queries (the size tier where sub-linear gain estimation
    starts beating exact greedy's full-universe scans)."""

    def __init__(self, min_queries: int):
        self.min_queries = min_queries

    def __call__(self, component: MC3Instance) -> bool:
        return component.n >= self.min_queries


class _SolveSampledComponent:
    """Picklable sampled-greedy WSC solve for one large component.

    The per-component RNG seed is derived from the run seed and the
    component's query content (blake2b, not ``hash()``), so outputs are
    bit-identical across ``jobs=1``/``jobs=N`` and ``PYTHONHASHSEED``
    values — each component's randomness is a pure function of (seed,
    its queries), independent of scheduling order.
    """

    def __init__(self, seed: int, rates: Tuple[float, ...], exact_threshold: int):
        self.seed = seed
        self.rates = tuple(rates)
        self.exact_threshold = exact_threshold

    def __call__(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        from repro.core.bitspace import PropertySpace
        from repro.reductions import mc3_to_wsc
        from repro.setcover import derive_seed, sampled_greedy_wsc

        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        stats: Dict[str, object] = {}
        wsc_solution = sampled_greedy_wsc(
            wsc,
            seed=derive_seed(self.seed, component.queries),
            rates=self.rates,
            exact_threshold=self.exact_threshold,
            stats=stats,
        )
        classifiers = {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}
        return classifiers, {
            "sampled": stats,
            "bitspace": {
                "properties": space.size,
                "elements": wsc.universe_size,
                "sets": wsc.num_sets,
            },
        }


#: Route name used in telemetry and details aggregation.
EXACT_K2_ROUTE = "exact-k2"

#: Route name of the sampled sub-linear greedy size-tier rule.
SAMPLED_WSC_ROUTE = "sampled-wsc"

#: Components below this many residual queries stay on the default
#: solver: sampling only pays once universes are large enough that the
#: sample is much smaller than the universe.
SAMPLED_ROUTE_MIN_QUERIES = 20_000


def sampled_wsc_route(
    min_queries: int = SAMPLED_ROUTE_MIN_QUERIES,
    seed: int = 0,
    rates: Optional[Tuple[float, ...]] = None,
    exact_threshold: Optional[int] = None,
) -> Route:
    """Size-tier rule: very large components go to the sampling-based
    sub-linear greedy (Indyk et al.) instead of the exact-gain greedy.

    The cache token names every output-affecting knob — run seed, the
    sample-rate schedule, and the exactness fallback threshold — so a
    cached component solution is only reused for an identical sampling
    configuration.
    """
    from repro.setcover import DEFAULT_EXACT_THRESHOLD, DEFAULT_SAMPLE_RATES

    resolved_rates = DEFAULT_SAMPLE_RATES if rates is None else tuple(rates)
    resolved_threshold = (
        DEFAULT_EXACT_THRESHOLD if exact_threshold is None else int(exact_threshold)
    )
    return Route(
        SAMPLED_WSC_ROUTE,
        _IsLargeComponent(min_queries),
        _SolveSampledComponent(seed, resolved_rates, resolved_threshold),
        cache_token=(
            "route",
            SAMPLED_WSC_ROUTE,
            int(seed),
            *resolved_rates,
            resolved_threshold,
        ),
    )


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
