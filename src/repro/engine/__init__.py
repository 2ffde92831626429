"""The shared component-solving engine.

Owns the solve pipeline every MC³ solver shares — preprocessing,
component scheduling, per-component dispatch (sequential or process
pool), deterministic merging, and per-stage telemetry — so solvers
implement only the narrow ``solve_component`` contract.  See
:mod:`repro.engine.engine` for the pipeline,
:mod:`repro.engine.routing` for engine-level rules like the exact
k ≤ 2 dispatch, and :mod:`repro.engine.resilience` for the one
component executor (budgets, fallback chains, worker-crash recovery,
partial solutions).
"""

from repro.engine.cache import (
    CacheConfig,
    DiskSolutionCache,
    MemorySolutionCache,
    SolutionCache,
    cache_choices,
    default_cache_dir,
    resolve_cache,
    set_default_cache,
)
from repro.engine.component import ComponentOutcome, SolvesComponents
from repro.engine.engine import SolveEngine
from repro.engine.resilience import (
    FALLBACK_RUNGS,
    ComponentFailure,
    PartialSolution,
    ResiliencePolicy,
    ResilienceReport,
    pool_context,
    resolve_rung,
    run_components,
)
from repro.engine.routing import (
    EXACT_K2_ROUTE,
    Route,
    exact_k2_route,
    solve_component_k2,
)
from repro.engine.telemetry import EngineTelemetry, size_histogram

__all__ = [
    "CacheConfig",
    "ComponentFailure",
    "ComponentOutcome",
    "DiskSolutionCache",
    "EXACT_K2_ROUTE",
    "EngineTelemetry",
    "FALLBACK_RUNGS",
    "MemorySolutionCache",
    "PartialSolution",
    "ResiliencePolicy",
    "ResilienceReport",
    "Route",
    "SolutionCache",
    "SolveEngine",
    "SolvesComponents",
    "cache_choices",
    "default_cache_dir",
    "exact_k2_route",
    "pool_context",
    "resolve_cache",
    "resolve_rung",
    "run_components",
    "set_default_cache",
    "size_histogram",
    "solve_component_k2",
]
