"""The narrow contract between the engine and a component solver.

A *component solver* is any object with

* ``name`` — short identifier for reports, and
* ``solve_component(component) -> (set[Classifier], dict)`` — solve one
  property-disjoint sub-instance, returning the selected classifiers and
  a free-form per-component details dict.

Because preprocessing (Algorithm 1, step 2) guarantees components share
no properties, composing per-component outputs is lossless (Observation
3.2) — the engine owns the composition, the solver owns only the single
component.  The contract is deliberately picklable-friendly: in
process-pool mode the engine ships ``(solver, component)`` pairs to
worker processes, so component solvers must not hold open resources.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Protocol, Set, Tuple, runtime_checkable

from repro.core.instance import MC3Instance
from repro.core.properties import Classifier


@runtime_checkable
class SolvesComponents(Protocol):
    """Structural type of what the engine dispatches to."""

    name: str

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        """Solve one property-disjoint component."""
        ...


class ComponentOutcome:
    """Result of solving one component, tagged with scheduling metadata.

    ``index`` is the component's position in the deterministic
    preprocessing order — merging iterates outcomes by index so parallel
    runs produce bit-identical results.  ``route`` names the engine
    routing rule that handled the component, or ``None`` when the
    default component solver did.

    ``rung`` names the fallback-chain rung that finally produced the
    answer — the dispatch target's own name on a clean run,
    ``"degraded"``/``"skipped"`` for the on_error outcomes (see
    :mod:`repro.engine.resilience`) — and ``attempts`` counts every
    attempt spent, including failed ones.
    """

    __slots__ = (
        "index",
        "classifiers",
        "details",
        "seconds",
        "size",
        "route",
        "rung",
        "attempts",
    )

    def __init__(
        self,
        index: int,
        classifiers: FrozenSet[Classifier],
        details: Dict[str, object],
        seconds: float,
        size: int,
        route: Optional[str],
        rung: str,
        attempts: int = 1,
    ):
        self.index = index
        self.classifiers = frozenset(classifiers)
        self.details = details
        self.seconds = seconds
        self.size = size
        self.route = route
        self.rung = rung
        self.attempts = attempts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = f" via {self.route}" if self.route else ""
        via += f" rung={self.rung} attempts={self.attempts}"
        return (
            f"<ComponentOutcome #{self.index}: {len(self.classifiers)} classifiers, "
            f"{self.size} queries, {self.seconds:.3f}s{via}>"
        )
