"""Solution-quality analysis: how far from optimal is a solution?

The paper's guarantees (Theorem 5.3) are worst-case; practitioners want
the *instance-specific* story.  :func:`optimality_report` combines

* the lower bound on OPT that the engine rolls up from every solve
  (``details["engine"]["lower_bound"]``: preprocessing's forced cost
  plus each component's bound),
* the proven approximation guarantee for the instance's parameters,

into a certificate: ``lower_bound ≤ OPT ≤ solution.cost`` with
``solution.cost / lower_bound`` an upper bound on the true gap.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.instance import MC3Instance
from repro.core.solution import SolverResult
from repro.extensions import instance_guarantee
from repro.solvers import make_solver


class OptimalityReport:
    """A quality certificate for one solution."""

    def __init__(
        self,
        solution_cost: float,
        lower_bound: float,
        guarantee: float,
        components: int,
        bounded: int,
    ):
        self.solution_cost = solution_cost
        self.lower_bound = lower_bound
        self.guarantee = guarantee
        self.components = components
        self.bounded = bounded

    @property
    def gap(self) -> float:
        """Upper bound on ``solution / OPT`` (1.0 = provably optimal)."""
        if self.lower_bound <= 0:
            return 1.0 if self.solution_cost <= 0 else math.inf
        return self.solution_cost / self.lower_bound

    @property
    def certified_optimal(self) -> bool:
        return self.gap <= 1.0 + 1e-9

    def describe(self) -> str:
        lines = [
            f"solution cost  : {self.solution_cost:g}",
            f"lower bound    : {self.lower_bound:g} "
            f"({self.bounded}/{self.components} bounded components)",
            f"gap            : at most {self.gap:.4f}x optimal",
            f"proven bound   : {self.guarantee:.2f}x (Theorem 5.3, worst case)",
        ]
        if self.certified_optimal:
            lines.append("verdict        : certified optimal")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OptimalityReport gap<={self.gap:.4f} bound={self.lower_bound:g}>"


def optimality_report(instance: MC3Instance, result: SolverResult) -> OptimalityReport:
    """Build a quality certificate for ``result``, a solve of ``instance``.

    The bound is the solve's own engine summary when every component
    reported one (``mc3-refined`` carries its inner ``mc3-general``
    solve's).  Results without it (the baselines, streaming,
    short-first and robust solvers) take the summary of one
    ``mc3-general`` solve of ``instance``.
    """
    result.solution.verify(instance)
    summary = _full_bound(result.details)
    if summary is None:
        general = make_solver("mc3-general").solve(instance)
        summary = general.details["engine"]["lower_bound"]
    return OptimalityReport(
        result.solution.cost,
        summary["value"],
        instance_guarantee(instance),
        summary["components"],
        summary["bounded"],
    )


def _full_bound(details: Dict[str, object]) -> Optional[Dict[str, object]]:
    """The engine's lower-bound summary, if it bounds every component."""
    engine = details.get("engine")
    summary = engine.get("lower_bound") if isinstance(engine, dict) else None
    if isinstance(summary, dict) and summary["bounded"] == summary["components"]:
        return summary
    return None
