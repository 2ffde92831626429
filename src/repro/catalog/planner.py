"""End-to-end classifier planning: query log → MC³ → trained classifiers
→ completed catalog → complete search answers.

This is the workflow the paper motivates: given the queries users run
and cost estimates for training classifiers, pick the cheapest classifier
set that covers the load (the MC³ optimisation), train it, run the
offline completion, and measure the search-quality gain.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.catalog.classifiers import ClassifierSuite
from repro.catalog.items import Catalog
from repro.catalog.search import SearchEngine, SearchQualityReport
from repro.core.costs import CostModel
from repro.core.instance import MC3Instance
from repro.core.properties import Query
from repro.core.solution import SolverResult
from repro.solvers import make_solver


class PlanOutcome:
    """Everything the planner produced, for reporting."""

    def __init__(
        self,
        solver_result: SolverResult,
        suite: ClassifierSuite,
        before: SearchQualityReport,
        after: SearchQualityReport,
        annotations_added: int,
    ):
        self.solver_result = solver_result
        self.suite = suite
        self.before = before
        self.after = after
        self.annotations_added = annotations_added

    @property
    def training_cost(self) -> float:
        return self.solver_result.cost

    def summary(self) -> str:
        return (
            f"trained {len(self.suite)} classifiers at cost "
            f"{self.training_cost:g}; mean recall "
            f"{self.before.mean_recall:.3f} -> {self.after.mean_recall:.3f} "
            f"({self.annotations_added} annotations added)"
        )


class ClassifierPlanner:
    """Plans, trains and applies a covering classifier set."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel,
        solver_name: str = "mc3-general",
        solver_kwargs: Optional[Dict[str, object]] = None,
    ):
        self.catalog = catalog
        self.cost_model = cost_model
        self.solver_name = solver_name
        self.solver_kwargs = dict(solver_kwargs or {})

    def build_instance(self, query_log: Sequence[Query], name: str = "catalog") -> MC3Instance:
        """The MC³ instance for a query load against this cost model."""
        return MC3Instance(query_log, self.cost_model, name=name)

    def plan_and_apply(self, query_log: Sequence[Query]) -> PlanOutcome:
        """Run the full workflow and report the before/after search
        quality on the planned query load."""
        engine = SearchEngine(self.catalog)
        before = engine.quality(query_log)

        instance = self.build_instance(query_log)
        solver = make_solver(self.solver_name, **self.solver_kwargs)
        result = solver.solve(instance)

        suite = ClassifierSuite.train(result.solution.classifiers, self.cost_model)
        added = suite.complete_catalog(self.catalog)
        engine.invalidate()
        after = engine.quality(query_log)
        return PlanOutcome(result, suite, before, after, added)
