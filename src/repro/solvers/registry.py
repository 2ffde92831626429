"""Solver registry: names → parameterized factories, as used by the
experiment harness and the CLI.

Every factory accepts the engine-level keywords (``jobs``, ``verify``,
and — where meaningful — ``preprocess_steps`` / ``dispatch_k2``) on top
of its solver-specific parameters, so harnesses can wire component
parallelism uniformly: ``make_solver(name, jobs=4)`` is valid for every
registered solver.  :func:`solver_parameters` exposes each factory's
signature for callers (e.g. the CLI) that need to know whether a flag
applies before constructing.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, List, Tuple

from repro.exceptions import SolverError
from repro.solvers.base import Solver
from repro.solvers.baselines import (
    LocalGreedySolver,
    MixedSolver,
    PropertyOrientedSolver,
    QueryOrientedSolver,
)
from repro.solvers.exact import ExactSolver
from repro.solvers.general import GeneralSolver
from repro.solvers.k2 import K2Solver
from repro.solvers.refined import RefinedSolver
from repro.solvers.robust import RobustSolver
from repro.solvers.sampled import SampledSolver
from repro.solvers.short_first import ShortFirstSolver
from repro.solvers.streaming import StreamingSolver

_FACTORIES: Dict[str, Callable[..., Solver]] = {
    "mc3-k2": K2Solver,
    "mc3-general": GeneralSolver,
    "mc3-sampled": SampledSolver,
    "mc3-streaming": StreamingSolver,
    "short-first": ShortFirstSolver,
    "property-oriented": PropertyOrientedSolver,
    "query-oriented": QueryOrientedSolver,
    "mixed": MixedSolver,
    "local-greedy": LocalGreedySolver,
    "exact": ExactSolver,
    "mc3-robust": RobustSolver,
    "mc3-refined": RefinedSolver,
}


def available_solvers() -> List[str]:
    """Registered solver names, sorted."""
    return sorted(_FACTORIES)


def _factory(name: str) -> Callable[..., Solver]:
    try:
        return _FACTORIES[name]
    except KeyError:
        known = ", ".join(available_solvers())
        raise SolverError(f"unknown solver {name!r} (known: {known})") from None


def solver_parameters(name: str) -> List[str]:
    """Constructor parameter names accepted by a registered solver.

    Factories with a ``**kwargs`` passthrough (e.g. ``mc3-refined``
    forwarding to the general solver) report the passthrough target's
    parameters too, so callers see the effective surface.
    """
    return list(_accepted(_factory(name)))


@functools.lru_cache(maxsize=None)
def _accepted(factory: Callable[..., Solver]) -> Tuple[str, ...]:
    """:func:`solver_parameters` of one factory, read off its signature
    once: ``inspect.signature`` is slow, and :func:`make_solver` checks
    every keyword it is given."""
    signature = inspect.signature(factory)
    params: List[str] = []
    passthrough = False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            passthrough = True
            continue
        params.append(parameter.name)
    if passthrough and factory is RefinedSolver:
        for extra in inspect.signature(GeneralSolver).parameters:
            if extra not in params:
                params.append(extra)
    return tuple(params)


def supports_parameter(name: str, parameter: str) -> bool:
    """Whether ``make_solver(name, parameter=...)`` is accepted."""
    return parameter in _accepted(_factory(name))


def make_solver(name: str, **kwargs) -> Solver:
    """Instantiate a solver by name; keyword arguments go to its
    constructor.  Unknown keywords raise :class:`SolverError` naming the
    supported parameters instead of a bare ``TypeError``."""
    factory = _factory(name)
    accepted = _accepted(factory)
    unsupported = [key for key in kwargs if key not in accepted]
    if unsupported:
        supported = ", ".join(solver_parameters(name))
        raise SolverError(
            f"solver {name!r} does not accept {sorted(unsupported)!r} "
            f"(supported parameters: {supported})"
        )
    return factory(**kwargs)
