"""Per-stage telemetry for the solving engine.

Every engine run records how long each pipeline stage took and how the
instance decomposed, so experiment reports can attribute wall-clock to
preprocessing vs. per-component solving and spot skewed decompositions
(one giant component means component-parallelism cannot help — the
histogram makes that visible without logging every size).
"""

from __future__ import annotations

from typing import Dict, List, Optional


def size_histogram(sizes: List[int]) -> Dict[str, int]:
    """Bucket component sizes (query counts) into power-of-two ranges.

    Buckets are ``"1"``, ``"2"``, ``"3-4"``, ``"5-8"``, … — compact even
    for loads that decompose into thousands of components.
    """
    histogram: Dict[str, int] = {}
    for size in sizes:
        low, high = 1, 1
        while size > high:
            low, high = high + 1, high * 2
        label = str(low) if low == high else f"{low}-{high}"
        histogram[label] = histogram.get(label, 0) + 1
    return histogram


def cost_ratio(cost: float, lower_bound: float) -> Optional[float]:
    """``cost / lower_bound``, or ``None`` when the bound is 0."""
    return cost / lower_bound if lower_bound > 0 else None


class EngineTelemetry:
    """Structured timings for one engine run.

    Rendered into ``SolverResult.details["engine"]``; all times are
    seconds.  ``component_seconds`` is index-aligned with
    ``component_sizes`` (component order is the deterministic
    preprocessing order, identical in sequential and parallel runs).
    """

    __slots__ = (
        "jobs",
        "mode",
        "preprocess_seconds",
        "solve_seconds",
        "merge_seconds",
        "component_sizes",
        "component_seconds",
        "routed",
        "rungs",
        "resilience",
        "cache",
        "bitspace_properties",
        "bitspace_elements",
        "bitspace_sets",
        "forced_cost",
        "solution_cost",
        "component_bound_sum",
        "components_bounded",
        "components_certified",
    )

    def __init__(self, jobs: int, mode: str):
        self.jobs = jobs
        self.mode = mode
        self.preprocess_seconds = 0.0
        self.solve_seconds = 0.0
        self.merge_seconds = 0.0
        self.component_sizes: List[int] = []
        self.component_seconds: List[float] = []
        self.routed: Dict[str, int] = {}
        # Fallback-chain resolution counts per rung name, and the
        # executor's resilience report as rendered by the engine.
        self.rungs: Dict[str, int] = {}
        self.resilience: Dict[str, object] = {}
        # Component-solution cache counters for this run (hits, misses,
        # inserts, lookup/insert seconds + the backing store's lifetime
        # stats); None when the run had no cache configured.
        self.cache: Optional[Dict[str, object]] = None
        # Per-component bitset property-space footprints (components
        # whose solver reported a "bitspace" details entry — i.e. went
        # through the interned-mask WSC path rather than e.g. max-flow).
        self.bitspace_properties: List[int] = []
        self.bitspace_elements: List[int] = []
        self.bitspace_sets: List[int] = []
        # Lower bound on the run's optimum: preprocessing's forced cost
        # plus the bounds that components reported ("lower_bound" in
        # their details; a component without one contributes 0).
        self.forced_cost = 0.0
        self.solution_cost = 0.0
        self.component_bound_sum = 0.0
        self.components_bounded = 0
        self.components_certified = 0

    def record_component(
        self,
        size: int,
        seconds: float,
        route: Optional[str],
        rung: str,
        bitspace: Optional[Dict[str, int]] = None,
        lower_bound: Optional[float] = None,
        certified: bool = False,
    ) -> None:
        self.component_sizes.append(size)
        self.component_seconds.append(seconds)
        if route is not None:
            self.routed[route] = self.routed.get(route, 0) + 1
        self.rungs[rung] = self.rungs.get(rung, 0) + 1
        if lower_bound is not None:
            self.component_bound_sum += lower_bound
            self.components_bounded += 1
        if certified:
            self.components_certified += 1
        if bitspace is not None:
            self.bitspace_properties.append(int(bitspace.get("properties", 0)))
            self.bitspace_elements.append(int(bitspace.get("elements", 0)))
            self.bitspace_sets.append(int(bitspace.get("sets", 0)))

    def lower_bound_summary(self) -> Dict[str, object]:
        """The run's lower bound on OPT and its solution's ratio to it.

        ``certified`` counts components whose greedy cover was proven
        optimal (so the ``f``-approximation arm was skipped).
        """
        value = self.forced_cost + self.component_bound_sum
        return {
            "value": value,
            "cost_ratio": cost_ratio(self.solution_cost, value),
            "components": len(self.component_sizes),
            "bounded": self.components_bounded,
            "certified": self.components_certified,
        }

    def bitspace_summary(self) -> Dict[str, int]:
        """Aggregate interning footprint across mask-path components.

        ``max_properties`` is the widest mask any component needed — the
        number that shows whether the per-component interning scope is
        doing its job of keeping masks machine-word sized.
        """
        props = self.bitspace_properties
        return {
            "components": len(props),
            "max_properties": max(props) if props else 0,
            "total_properties": sum(props),
            "total_elements": sum(self.bitspace_elements),
            "total_sets": sum(self.bitspace_sets),
        }

    def as_dict(self) -> Dict[str, object]:
        rendered: Dict[str, object] = {
            "jobs": self.jobs,
            "mode": self.mode,
            "preprocess_seconds": self.preprocess_seconds,
            "solve_seconds": self.solve_seconds,
            "merge_seconds": self.merge_seconds,
            "component_sizes": list(self.component_sizes),
            "component_seconds": list(self.component_seconds),
            "component_size_histogram": size_histogram(self.component_sizes),
            "routed": dict(self.routed),
            "rungs": dict(self.rungs),
            "resilience": self.resilience,
            "bitspace": self.bitspace_summary(),
            "lower_bound": self.lower_bound_summary(),
        }
        if self.cache is not None:
            rendered["cache"] = self.cache
        return rendered
