"""Solution objects shared by every solver."""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.core.coverage import CoverageChecker
from repro.core.properties import Classifier, canonical_label
from repro.exceptions import InfeasibleSolutionError


class Solution:
    """A set of classifiers selected to cover a query load.

    The total cost is fixed at construction time (costs are evaluated
    against the instance the solution was produced for), so a Solution is
    a self-contained record even if the cost model is later mutated.
    """

    __slots__ = ("classifiers", "cost")

    def __init__(self, classifiers: Iterable[Classifier], cost: float):
        self.classifiers: FrozenSet[Classifier] = frozenset(classifiers)
        if math.isnan(cost) or cost < 0:
            raise InfeasibleSolutionError(f"solution cost must be in [0, inf), got {cost}")
        self.cost = float(cost)

    @classmethod
    def from_instance(cls, classifiers: Iterable[Classifier], instance) -> "Solution":
        """Build a solution pricing the classifiers with ``instance``."""
        selected = frozenset(classifiers)
        return cls(selected, instance.total_weight(selected))

    def verify(self, instance) -> "Solution":
        """Assert feasibility against the independent coverage checker and
        that the recorded cost matches the instance's pricing.  Returns
        ``self`` so calls chain."""
        CoverageChecker(instance.queries).verify(self.classifiers)
        expected = instance.total_weight(self.classifiers)
        if not math.isclose(expected, self.cost, rel_tol=1e-9, abs_tol=1e-9):
            raise InfeasibleSolutionError(
                f"recorded cost {self.cost} != instance pricing {expected}"
            )
        return self

    def union(self, other: "Solution") -> "Solution":
        """Combine two solutions (e.g. per-component partial solutions).

        Shared classifiers are paid once, matching the model: the combined
        cost is the cost of the union set, computed as the sum of the two
        costs minus nothing only when the parts are disjoint.  For safety
        we require callers to re-price overlapping unions via
        :meth:`from_instance`; disjoint unions are combined directly.
        """
        overlap = self.classifiers & other.classifiers
        if overlap:
            raise InfeasibleSolutionError(
                "cannot cheaply union overlapping solutions; re-price via from_instance"
            )
        return Solution(self.classifiers | other.classifiers, self.cost + other.cost)

    def sorted_labels(self) -> List[str]:
        """Deterministic human-readable classifier labels."""
        return sorted(canonical_label(c) for c in self.classifiers)

    def __len__(self) -> int:
        return len(self.classifiers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return self.classifiers == other.classifiers

    def __hash__(self) -> int:
        return hash(self.classifiers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Solution cost={self.cost} classifiers={len(self.classifiers)}>"


class SolverResult:
    """A solution plus provenance: which solver, how long, and details.

    ``details`` is a free-form dict for solver-specific diagnostics
    (e.g. which WSC sub-algorithm won inside Algorithm 3, preprocessing
    savings, flow value of the cut).
    """

    __slots__ = ("solution", "solver_name", "elapsed_seconds", "details")

    def __init__(
        self,
        solution: Solution,
        solver_name: str,
        elapsed_seconds: float = 0.0,
        details: Optional[Dict[str, object]] = None,
    ):
        self.solution = solution
        self.solver_name = solver_name
        self.elapsed_seconds = elapsed_seconds
        self.details = details or {}

    @property
    def cost(self) -> float:
        return self.solution.cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SolverResult {self.solver_name}: cost={self.cost} "
            f"({len(self.solution)} classifiers, {self.elapsed_seconds:.3f}s)>"
        )
