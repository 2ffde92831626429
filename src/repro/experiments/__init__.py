"""Experiment harness: regenerates every table and figure of the paper's
evaluation (Section 6), plus the ablations DESIGN.md calls out."""

from repro.experiments.ablations import (
    preprocessing_steps,
    redundancy_cost,
    short_first_threshold,
    sublinear_solvers,
    wsc_methods,
)
from repro.experiments.categories import category_comparison
from repro.experiments.endtoend import budget_recall_curve
from repro.experiments.figures import (
    figure_3a,
    figure_3b,
    figure_3c,
    figure_3d,
    figure_3e,
    figure_3f,
)
from repro.experiments.noise import noise_quality_curve
from repro.experiments.parallel import parallel_sweep
from repro.experiments.report import FigureResult, Series, average_figures, render_table
from repro.experiments.runner import SweepResult, subset_order, sweep
from repro.experiments.tables import TableResult, table_1

__all__ = [
    "FigureResult",
    "Series",
    "SweepResult",
    "TableResult",
    "average_figures",
    "budget_recall_curve",
    "category_comparison",
    "figure_3a",
    "figure_3b",
    "figure_3c",
    "figure_3d",
    "figure_3e",
    "figure_3f",
    "noise_quality_curve",
    "parallel_sweep",
    "preprocessing_steps",
    "redundancy_cost",
    "render_table",
    "short_first_threshold",
    "sublinear_solvers",
    "subset_order",
    "sweep",
    "table_1",
    "wsc_methods",
]
