"""End-to-end experiment: classifier budget vs search recall.

The paper's economics in one curve: spend more on classifiers → cover
more of the query load → users see more of the items they searched for.
The pipeline is the full motivating stack — generated query load →
simulated catalog with missing annotations → budgeted classifier plan
(the partial-cover extension) → simulated training → offline completion
→ recall measurement against latent ground truth.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.catalog import ClassifierSuite, SearchEngine
from repro.catalog.simulate import catalog_for_load
from repro.datasets import private_like
from repro.experiments.report import FigureResult, Series
from repro.extensions import greedy_partial_cover


def budget_recall_curve(
    n: int = 300,
    budget_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    seed: int = 0,
    items_per_query: int = 3,
    observe_rate: float = 0.35,
) -> FigureResult:
    """Mean search recall as a function of the classifier budget.

    The budget axis is the fraction of the full-coverage cost; the
    planner is the bundle greedy from the partial-cover extension with
    query weights proportional to (simulated) popularity.
    """
    load = private_like(n, seed=seed)
    # Popularity: head queries (short) matter more, as in real logs.
    weights = {q: (3.0 if len(q) <= 2 else 1.0) for q in load.queries}
    full_cost = greedy_partial_cover(load, weights, budget=float("inf")).cost

    recall_points: List[Tuple[float, float]] = []
    covered_points: List[Tuple[float, float]] = []
    total_weight = sum(weights.values())
    for fraction in budget_fractions:
        budget = full_cost * fraction
        plan = greedy_partial_cover(load, weights, budget=budget)
        # Fresh catalog per budget: completion mutates the store.
        catalog = catalog_for_load(
            load,
            items_per_query=items_per_query,
            observe_rate=observe_rate,
            distractors=n,
            seed=seed,
        )
        suite = ClassifierSuite.train(plan.classifiers, load.cost)
        suite.complete_catalog(catalog)
        engine = SearchEngine(catalog)
        report = engine.quality(load.queries)
        recall_points.append((fraction, report.mean_recall))
        covered_points.append((fraction, plan.covered_weight / total_weight))

    return FigureResult(
        "End-to-end",
        f"Classifier budget vs search recall (P-like n={load.n}, "
        f"observe_rate={observe_rate})",
        "budget (fraction of full-coverage cost)",
        "mean recall / covered weight share",
        [
            Series("mean search recall", recall_points),
            Series("covered query-weight share", covered_points),
        ],
        notes=(
            "recall at budget 0 reflects seller-provided annotations alone; "
            "budget 1.0 gives full coverage and recall 1.0 on covered queries."
        ),
    )
